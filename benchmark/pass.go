package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"recdb/client"
)

// recallUsers and recallFloor size the recommend.vector recall check.
const (
	recallUsers = 50
	recallFloor = 0.9
)

// untracedPass measures a workload end to end, tracing off: it sets the
// cluster up setUps times (reporting the median), drives the closed loop
// against the last one, and checks answers, counters and durability.
func untracedPass(ctx context.Context, cfg config, w workload, d *data) (*passResult, error) {
	var c *cluster
	var setups []float64
	for i := 0; i < setUps; i++ {
		if c != nil {
			c.stop()
		}
		var took time.Duration
		var err error
		c, took, err = setUp(ctx, cfg.bins, cfg.clusterDir(fmt.Sprintf("%s-e2e-%d", w.name, i)), d)
		if err != nil {
			return nil, err
		}
		setups = append(setups, took.Seconds())
	}
	defer c.stop()
	defer context.AfterFunc(ctx, c.kill)()

	before, err := c.scrapeAll()
	if err != nil {
		return nil, err
	}
	win, err := drive(c.router.addr, w, d, cfg.seed, cfg.clients, cfg.warm, cfg.window)
	if err != nil {
		return nil, err
	}
	after, err := c.scrapeAll()
	if err != nil {
		return nil, err
	}
	problems := checkCounters(w, delta(before, after), win.readOps)
	if win.firstErr != nil {
		problems = append(problems, fmt.Errorf("%d of %d ops failed, first: %w", win.failed, win.attempted, win.firstErr))
	}
	if w.strategy == "VectorRecommend" {
		recall, err := c.recall(d, cfg.seed)
		if err != nil {
			return nil, err
		}
		report(cfg.out, w.name, "recall_at_10", metric{recall, "ratio"})
		if recall < recallFloor {
			problems = append(problems, fmt.Errorf("recall@%d %.3f is below %.2f", topK, recall, recallFloor))
		}
	}
	if win.acked != [shardCount]int{} {
		dur, err := c.durability(d, win.acked)
		if err != nil {
			problems = append(problems, err)
		} else {
			report(cfg.out, w.name, "acked_writes_lost", metric{float64(dur.lost), "count"})
			report(cfg.out, w.name, "recovery_s", metric{dur.recovery.Seconds(), "s"})
		}
	}

	p50, err := win.reads.percentile(0.50)
	if err != nil {
		return nil, err
	}
	p95, err := win.reads.percentile(0.95)
	if err != nil {
		return nil, err
	}
	res := &passResult{
		Correct:   len(problems) == 0,
		Attempted: win.attempted,
		Failed:    win.failed,
		Metrics: map[string]metric{
			"ops_per_s":   {win.opsPerS, "1/s"},
			"read_p50_ms": {ms(p50), "ms"},
			"read_p95_ms": {ms(p95), "ms"},
			"setup_s":     {median(setups), "s"},
		},
	}
	for _, name := range []string{"ops_per_s", "read_p50_ms", "read_p95_ms", "setup_s"} {
		report(cfg.out, w.name, name, res.Metrics[name])
	}
	// Un-gated companions: the failure share, the write latencies of the
	// mixed workload, and the highest tail the sample supports.
	report(cfg.out, w.name, "fail_ratio", metric{float64(win.failed) / float64(win.attempted), "ratio"})
	reportTail(cfg, w.name, "read", win.reads)
	if len(win.writes) > 0 {
		for _, q := range []float64{0.50, 0.95} {
			if ns, err := win.writes.percentile(q); err == nil {
				report(cfg.out, w.name, fmt.Sprintf("write_p%g_ms", q*100), metric{ms(ns), "ms"})
			}
		}
		reportTail(cfg, w.name, "write", win.writes)
	}
	for _, p := range problems {
		fmt.Fprintf(cfg.out, "%-16s WRONG %v\n", w.name, p)
	}
	return res, nil
}

// reportTail prints the sample count and the highest percentile with at
// least tailSupport samples beyond it.
func reportTail(cfg config, workload, kind string, l latencies) {
	report(cfg.out, workload, kind+"_samples", metric{float64(len(l)), "count"})
	if q, ns, err := l.tail(); err == nil {
		report(cfg.out, workload, fmt.Sprintf("%s_p%g_ms", kind, q*100), metric{ms(ns), "ms"})
	}
}

// delta subtracts two scrapes.
func delta(before, after map[string]float64) map[string]float64 {
	out := make(map[string]float64, len(after))
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}

// strategyCounters are the shards' planner tallies of recommend plans.
var strategyCounters = map[string]string{
	"Recommend":       "plan.recommend",
	"FilterRecommend": "plan.filter_recommend",
	"JoinRecommend":   "plan.join_recommend",
	"IndexRecommend":  "plan.index_recommend",
	"VectorRecommend": "plan.vector_recommend",
}

// checkCounters holds the cluster's own counters against what the
// workload should have caused: every read planned with the expected
// strategy and no other, no retry, no refusal, no shard seen down.
func checkCounters(w workload, d map[string]float64, reads int) []error {
	var problems []error
	for strategy, counter := range strategyCounters {
		expect := 0.0
		if strategy == w.strategy {
			expect = float64(reads)
		}
		if d[counter] != expect {
			problems = append(problems, fmt.Errorf("%s moved by %.0f, want %.0f", counter, d[counter], expect))
		}
	}
	for _, counter := range []string{"shard.retries", "shard.rejected_busy", "shard.down_errors", "server.rejected_busy"} {
		if d[counter] != 0 {
			problems = append(problems, fmt.Errorf("%s moved by %.0f, want 0", counter, d[counter]))
		}
	}
	return problems
}

// recall compares the served IVF top-10 of a sample of users with the
// exact scan of the same model on the same shard: the same statement
// without its LIMIT cannot use the index and scores every item.
func (c *cluster) recall(d *data, seed int64) (float64, error) {
	conn, err := client.Dial(c.router.addr)
	if err != nil {
		return 0, err
	}
	defer func() { _ = conn.Close() }()
	ctx := context.Background()
	rnd := rand.New(rand.NewSource(seed))
	users := rnd.Perm(len(d.users))
	hits, total := 0, 0
	for _, ui := range users[:min(recallUsers, len(users))] {
		user := d.users[ui]
		approx, err := conn.Query(ctx, vectorOp(user, nil).sql)
		if err != nil {
			return 0, fmt.Errorf("recall sample uid=%d: %w", user, err)
		}
		exact, err := conn.Query(ctx, recommendSQL("SVD", user, ""))
		if err != nil {
			return 0, fmt.Errorf("recall reference uid=%d: %w", user, err)
		}
		if exact.Strategy() != "FilterRecommend" || exact.Len() < topK {
			return 0, fmt.Errorf("recall reference uid=%d: %d rows by %q", user, exact.Len(), exact.Strategy())
		}
		truth := map[int64]bool{}
		for _, r := range exact.All()[:topK] {
			truth[r[0].Int()] = true
		}
		for _, r := range approx.All() {
			if truth[r[0].Int()] {
				hits++
			}
		}
		total += topK
	}
	return float64(hits) / float64(total), nil
}

// durabilityResult is what the kill-and-restart check observed.
type durabilityResult struct {
	lost     int           // acknowledged INSERTs missing after the restart
	recovery time.Duration // restarting every shard on its home, one after another
}

// durability counts each shard's ratings over a direct connection —
// seeded plus acknowledged — then SIGKILLs every shard, restarts each on
// its home and counts again. The OS page cache survives a SIGKILL, so
// this checks that replay finds every acknowledged commit, not that the
// device kept it.
func (c *cluster) durability(d *data, acked [shardCount]int) (durabilityResult, error) {
	var res durabilityResult
	count := func(s int) (int, error) {
		conn, err := client.Dial(c.shards[s].addr)
		if err != nil {
			return 0, err
		}
		defer func() { _ = conn.Close() }()
		rows, err := conn.Query(context.Background(), `SELECT COUNT(*) FROM ratings`)
		if err != nil {
			return 0, err
		}
		if rows.Len() != 1 {
			return 0, fmt.Errorf("COUNT(*) returned %d rows", rows.Len())
		}
		n, _ := rows.All()[0][0].AsInt()
		return int(n), nil
	}
	want := make([]int, shardCount)
	for s := range want {
		want[s] = d.seededOn(s) + acked[s]
		got, err := count(s)
		if err != nil {
			return res, fmt.Errorf("shard %d count: %w", s, err)
		}
		if got != want[s] {
			return res, fmt.Errorf("shard %d holds %d ratings, want %d seeded + %d acknowledged", s, got, d.seededOn(s), acked[s])
		}
	}
	// The router only knows the old ports; it has no part in the re-count.
	c.router.stop()
	for _, s := range c.shards {
		s.kill()
	}
	start := time.Now()
	for s := range c.shards {
		p, err := c.startShard(s)
		if err != nil {
			return res, fmt.Errorf("restart: %w", err)
		}
		c.shards[s] = p
	}
	res.recovery = time.Since(start)
	for s := range want {
		got, err := count(s)
		if err != nil {
			return res, fmt.Errorf("shard %d re-count: %w", s, err)
		}
		if got > want[s] {
			return res, fmt.Errorf("shard %d holds %d ratings after restart, more than the %d written", s, got, want[s])
		}
		res.lost += want[s] - got
	}
	if res.lost != 0 {
		return res, fmt.Errorf("%d acknowledged writes lost across a kill and restart", res.lost)
	}
	return res, nil
}
