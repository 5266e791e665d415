package main

import (
	"context"
	"sync"
	"time"

	"recdb/client"
	"recdb/internal/types"
)

// window is what one closed-loop pass over a workload observed.
type window struct {
	reads, writes latencies // timed ops only; sorted once the clients are merged
	opsPerS       float64   // sum over clients of timed ops / that client's own elapsed time
	attempted     int       // every op issued, warm-up included
	failed        int       // errors, refusals and wrong answers among them
	firstErr      error
	acked         [shardCount]int // acknowledged INSERTs by owning shard, warm-up included
	readOps       int             // reads issued, warm-up included (for the strategy counters)
}

// answer is what a statement returned, whichever entry point ran it.
type answer struct {
	rows     []types.Row
	strategy string
	affected int64
}

// ask executes one op on conn. No per-op deadline: the client forwards a
// context deadline to the server as a statement timeout, which is work
// the workloads do not otherwise ask for; a hung server is the pass
// watchdog's business.
func ask(conn *client.Conn, o op) (answer, error) {
	ctx := context.Background()
	if o.write() {
		res, err := conn.Exec(ctx, o.sql)
		return answer{affected: res.RowsAffected}, err
	}
	rows, err := conn.Query(ctx, o.sql)
	if err != nil {
		return answer{}, err
	}
	return answer{rows: rows.All(), strategy: rows.Strategy()}, nil
}

// runOp executes one op on conn and returns the latency the caller
// observed; the answer is checked after the clock stops.
func runOp(conn *client.Conn, d *data, o op) (time.Duration, error) {
	start := time.Now()
	a, err := ask(conn, o)
	took := time.Since(start)
	if err == nil {
		err = d.check(o, a)
	}
	return took, err
}

// drive runs a workload closed-loop against addr: clients goroutines,
// one connection and one request in flight each, an untimed warm-up and
// then a timed window that starts once every client has warmed.
func drive(addr string, w workload, d *data, seed int64, clients int, warm, timed time.Duration) (*window, error) {
	type clientResult struct {
		window
		err error // the client could not run at all
	}
	results := make([]clientResult, clients)
	var wg, warmed sync.WaitGroup
	warmed.Add(clients)
	for lane := 0; lane < clients; lane++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			r := &results[lane]
			conn, err := client.Dial(addr)
			if err != nil {
				r.err = err
				warmed.Done()
				return
			}
			defer func() { _ = conn.Close() }()
			next := w.stream(d, seed, int64(lane), int64(clients))
			one := func(timedOp bool) {
				o := next()
				took, err := runOp(conn, d, o)
				r.attempted++
				switch {
				case err != nil:
					r.failed++
					if r.firstErr == nil {
						r.firstErr = err
					}
					return
				case o.write():
					r.acked[d.ring.Owner(o.user)]++
				default:
					r.readOps++
				}
				if timedOp && o.write() {
					r.writes = append(r.writes, int64(took))
				} else if timedOp {
					r.reads = append(r.reads, int64(took))
				}
			}
			for end := time.Now().Add(warm); time.Now().Before(end); {
				one(false)
			}
			warmed.Done()
			warmed.Wait()
			start := time.Now()
			for end := start.Add(timed); time.Now().Before(end); {
				one(true)
			}
			r.opsPerS = float64(len(r.reads)+len(r.writes)) / time.Since(start).Seconds()
		}(lane)
	}
	wg.Wait()

	total := &window{}
	for i := range results {
		r := &results[i]
		if r.err != nil {
			return nil, r.err
		}
		total.reads = append(total.reads, r.reads...)
		total.writes = append(total.writes, r.writes...)
		total.opsPerS += r.opsPerS
		total.attempted += r.attempted
		total.failed += r.failed
		total.readOps += r.readOps
		if total.firstErr == nil {
			total.firstErr = r.firstErr
		}
		for s := range r.acked {
			total.acked[s] += r.acked[s]
		}
	}
	total.reads, total.writes = sorted(total.reads), sorted(total.writes)
	return total, nil
}
