package main

import (
	"bytes"
	"context"
	"fmt"
	"path/filepath"
	"time"

	"recdb"
	"recdb/client"
	"recdb/internal/exec"
	"recdb/internal/fault"
	"recdb/internal/sql"
	"recdb/internal/types"
	"recdb/internal/wal"
	"recdb/internal/wire"
)

// span is one timed call into a layer. Spans of one op share its id; a
// span's parent is the rung above it on the ladder. The rungs of an op
// are separate executions of the same statement at successively deeper
// entry points, run one after another on one goroutine, so a parent
// contains its children by construction rather than by the clock.
type span struct {
	Name     string `json:"name"`
	Workload string `json:"workload"`
	Op       int    `json:"op"`
	Parent   int    `json:"parent"` // index into the pass's spans, -1 for a root
	Start    int64  `json:"start"`  // ns since the pass began
	End      int64  `json:"end"`
}

// tracer keeps a pass's spans in memory until the pass ends.
type tracer struct {
	workload string
	t0       time.Time
	spans    []span
}

// time runs fn inside a new span and returns the span's index.
func (t *tracer) time(name string, op, parent int, fn func()) int {
	i := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Workload: t.workload, Op: op, Parent: parent})
	start := time.Since(t.t0)
	fn()
	t.spans[i].Start, t.spans[i].End = int64(start), int64(time.Since(t.t0))
	return i
}

// selfTimes returns, per span name, every span's self time: its duration
// minus the durations of its direct children. Children of one parent
// never overlap (the pass is single-threaded), so the sum of their
// durations is the part of the parent they account for.
func selfTimes(spans []span) map[string][]int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] += s.End - s.Start
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	out := map[string][]int64{}
	for i, s := range spans {
		out[s.Name] = append(out[s.Name], self[i])
	}
	return out
}

// durations returns, per span name, every span's duration.
func durations(spans []span) map[string][]int64 {
	out := map[string][]int64{}
	for _, s := range spans {
		out[s.Name] = append(out[s.Name], s.End-s.Start)
	}
	return out
}

// medianUs is the median of ns in microseconds (0 for an empty set: the
// workload never entered that layer).
func medianUs(ns []int64) float64 {
	if len(ns) == 0 {
		return 0
	}
	s := sorted(ns)
	return us(s[len(s)/2])
}

// ladder holds everything below the served cluster that the traced pass
// calls into directly.
type ladder struct {
	d        *data
	router   *client.Conn
	direct   [shardCount]*client.Conn
	replicas [shardCount]*recdb.DB // durable embedded copy of each shard's partition
	cold     *recdb.DB             // whole rating set behind an 8-page pool, lookups only
	log      *wal.Log              // OS-file log appended to without its own fsync
}

// coldPoolPages starves the cold database's buffer pool. recdb-server
// exposes no pool flag and every served workload fits its 512-page
// default, so this embedded database is the only place misses happen.
const coldPoolPages = 8

// openReplica builds a durable embedded database in dir from script.
func openReplica(dir string, script []string, opts ...recdb.Option) (*recdb.DB, error) {
	db := recdb.Open(opts...)
	if err := db.SaveTo(dir); err != nil {
		db.Close()
		return nil, err
	}
	err := runScript(script, func(sql string) error {
		_, err := db.Exec(sql)
		return err
	})
	if err != nil {
		db.Close()
		return nil, err
	}
	return db, nil
}

func newLadder(ctx context.Context, c *cluster, d *data, dir string) (*ladder, error) {
	l := &ladder{d: d}
	var err error
	if l.router, err = client.DialContext(ctx, c.router.addr); err != nil {
		return nil, err
	}
	for s := range l.direct {
		if l.direct[s], err = client.DialContext(ctx, c.shards[s].addr); err != nil {
			l.close()
			return nil, err
		}
		s := s
		// The shard's own sync policy: fsync on every commit.
		l.replicas[s], err = openReplica(filepath.Join(dir, fmt.Sprintf("replica%d", s)), d.script(&s, true), recdb.WithWALSyncEvery(1))
		if err != nil {
			l.close()
			return nil, err
		}
	}
	if l.cold, err = openReplica(filepath.Join(dir, "cold"), d.script(nil, false), recdb.WithPoolPages(coldPoolPages)); err != nil {
		l.close()
		return nil, err
	}
	// SyncEvery far above any run's appends: Append only writes, and the
	// pass times the fsync on its own by calling Sync.
	l.log, err = wal.Open(fault.OS, filepath.Join(dir, "scratch-wal"), 0, wal.Options{SyncEvery: 1 << 30})
	if err != nil {
		l.close()
		return nil, err
	}
	return l, nil
}

func (l *ladder) close() {
	if l.router != nil {
		_ = l.router.Close()
	}
	for s := range l.direct {
		if l.direct[s] != nil {
			_ = l.direct[s].Close()
		}
		if l.replicas[s] != nil {
			l.replicas[s].Close()
		}
	}
	if l.cold != nil {
		l.cold.Close()
	}
	if l.log != nil {
		_ = l.log.Close()
	}
}

// rungs is how many times the ladder executes an INSERT for real
// (routed, direct, embedded); each takes its own fresh item id, in a
// range of its own above the ids the untraced streams use.
const (
	rungs      = 3
	ladderBase = 500_000_000
)

// tally counts statement executions and the failed ones among them.
type tally struct {
	attempted, failed int
	firstErr          error
	reads, writes     int             // ladder ops by kind
	cold              int             // lookups repeated on the cold database
	acked             [shardCount]int // INSERTs the cluster acknowledged, by owner
}

func (t *tally) note(err error) {
	t.attempted++
	if err != nil {
		t.failed++
		if t.firstErr == nil {
			t.firstErr = err
		}
	}
}

// askDB executes one op on an embedded database.
func askDB(db *recdb.DB, o op) (answer, error) {
	if o.write() {
		res, err := db.Exec(o.sql)
		return answer{affected: res.RowsAffected}, err
	}
	rows, err := db.Query(o.sql)
	if err != nil {
		return answer{}, err
	}
	return answer{rows: rows.All(), strategy: rows.Strategy()}, nil
}

// climb executes op n at every rung and records its spans:
//
//	routed                 client.Conn via the router
//	└─ direct              client.Conn straight to the owning shard
//	   ├─ embedded         recdb.DB on the replica of that shard's partition
//	   │  ├─ sql.parse
//	   │  ├─ plan.select, exec.collect     (reads)
//	   │  └─ wal.append, wal.fsync         (inserts)
//	   └─ wire.codec       the op's request and response frames, both ends
//	storage.cold           the lookup again on the 8-page-pool database
func (l *ladder) climb(tr *tracer, n int, o op, t *tally) {
	owner := l.d.ring.Owner(o.user)
	at := func(rung int64) op {
		if o.write() {
			return insertOp(o.user, ladderBase+(o.item-insertBase)*rungs+rung)
		}
		return o
	}
	if o.write() {
		t.writes++
	} else {
		t.reads++
	}
	// Answers are checked outside the spans.
	var a answer
	var err error
	verdict := func(rung op) error {
		if err == nil {
			err = l.d.check(rung, a)
		}
		t.note(err)
		return err
	}
	routed := tr.time("routed", n, -1, func() { a, err = ask(l.router, at(0)) })
	if verdict(at(0)) == nil && o.write() {
		t.acked[owner]++
	}
	direct := tr.time("direct", n, routed, func() { a, err = ask(l.direct[owner], at(1)) })
	if verdict(at(1)) == nil && o.write() {
		t.acked[owner]++
	}
	db := l.replicas[owner]
	embedded := tr.time("embedded", n, direct, func() { a, err = askDB(db, at(2)) })
	_ = verdict(at(2)) // tallied; nothing depends on this rung's success
	rows := a.rows

	// The layers below the embedded call, each on its own. They repeat
	// work the rungs above were already checked for, so an error here is
	// the harness's and only noted.
	var stmt sql.Statement
	tr.time("sql.parse", n, embedded, func() { stmt, err = sql.Parse(o.sql) })
	if sel, ok := stmt.(*sql.Select); ok && err == nil {
		var plan exec.Operator
		tr.time("plan.select", n, embedded, func() { plan, _, err = db.Engine().Planner().PlanSelect(sel) })
		if err == nil {
			tr.time("exec.collect", n, embedded, func() { _, err = exec.Collect(plan) })
		}
	} else if err == nil {
		row := types.Row{types.NewInt(o.user), types.NewInt(o.item), types.NewFloat(3)}
		tr.time("wal.append", n, embedded, func() {
			rec := wal.Record{Kind: wal.RecInsert, Table: "ratings", Row: types.EncodeRow(nil, row)}
			//lint:ignore walorder the scratch log backs no engine; it exists to time Append and Sync on their own
			_, err = l.log.Append(wal.EncodeRecord(nil, rec))
		})
		if err == nil {
			tr.time("wal.fsync", n, embedded, func() { err = l.log.Sync() })
		}
	}
	if err == nil {
		tr.time("wire.codec", n, direct, func() { err = codec(o, rows) })
	}
	if err != nil && t.firstErr == nil {
		t.firstErr = fmt.Errorf("decomposed %.40s...: %w", o.sql, err)
	}

	if o.kind == opLookup {
		tr.time("storage.cold", n, -1, func() { a, err = askDB(l.cold, o) })
		_ = verdict(o)
		t.cold++
	}
}

// codec encodes and decodes what one hop carries for the op: the request
// frame as the client writes and the server reads it, then the response
// frames as the server writes and the client reads them.
func codec(o op, rows []types.Row) error {
	var pipe bytes.Buffer
	kind := wire.TypeQuery
	if o.write() {
		kind = wire.TypeExec
	}
	if err := wire.WriteFrame(&pipe, kind, wire.AppendRequest(nil, wire.Request{ID: 1, SQL: o.sql})); err != nil {
		return err
	}
	_, payload, buf, err := wire.ReadFrame(&pipe, nil)
	if err != nil {
		return err
	}
	if _, err := wire.DecodeRequest(payload); err != nil {
		return err
	}
	if !o.write() {
		desc := wire.RowDesc{ID: 1, Strategy: o.strategy(), Columns: []string{"iid", "ratingval"}}
		if err := wire.WriteFrame(&pipe, wire.TypeRowDesc, wire.AppendRowDesc(nil, desc)); err != nil {
			return err
		}
		if err := wire.WriteFrame(&pipe, wire.TypeRowBatch, wire.AppendRowBatch(nil, 1, rows)); err != nil {
			return err
		}
	}
	if err := wire.WriteFrame(&pipe, wire.TypeComplete, wire.AppendComplete(nil, wire.Complete{ID: 1, Rows: int64(len(rows))})); err != nil {
		return err
	}
	for pipe.Len() > 0 {
		var t wire.Type
		if t, payload, buf, err = wire.ReadFrame(&pipe, buf); err != nil {
			return err
		}
		switch t {
		case wire.TypeRowDesc:
			_, err = wire.DecodeRowDesc(payload)
		case wire.TypeRowBatch:
			_, _, err = wire.DecodeRowBatch(payload)
		case wire.TypeComplete:
			_, err = wire.DecodeComplete(payload)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// ratio is a/b, or 0 when b is 0: a layer the workload bypasses.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// tracedPass times each layer of a workload from outside. A quarter of
// the window is an untraced single-client routed baseline (the reference
// for the tracing overhead); the rest climbs the ladder op by op. Counts
// come from scrapes of every process around the pass.
func tracedPass(ctx context.Context, cfg config, w workload, d *data) (*passResult, []span, error) {
	c, _, err := setUp(ctx, cfg.bins, cfg.clusterDir(w.name+"-traced"), d)
	if err != nil {
		return nil, nil, err
	}
	defer c.stop()
	defer context.AfterFunc(ctx, c.kill)()
	l, err := newLadder(ctx, c, d, c.dir)
	if err != nil {
		return nil, nil, err
	}
	defer l.close()

	before, err := c.scrapeAll()
	if err != nil {
		return nil, nil, err
	}
	base, err := drive(c.router.addr, w, d, cfg.seed, 1, cfg.warm/4, cfg.window/4)
	if err != nil {
		return nil, nil, err
	}
	// The ladder replays the stream the baseline client just ran.
	next := w.stream(d, cfg.seed, 0, 1)
	t := &tally{attempted: base.attempted, failed: base.failed, firstErr: base.firstErr, acked: base.acked}
	coldBefore := l.cold.Metrics()
	tr := &tracer{workload: w.name, t0: time.Now()}
	warm := &tracer{t0: tr.t0} // the first ops' spans are thrown away
	for n := 0; time.Since(tr.t0) < cfg.window*3/4; n++ {
		into := tr
		if time.Since(tr.t0) < cfg.warm*3/4 {
			into = warm
		}
		l.climb(into, n, next(), t)
	}
	elapsed := time.Since(tr.t0) + cfg.window/4
	after, err := c.scrapeAll()
	if err != nil {
		return nil, nil, err
	}
	dl := delta(before, after)
	coldAfter := l.cold.Metrics()

	// Every ladder read ran twice on the cluster (routed and direct).
	servedReads := float64(base.readOps + 2*t.reads)
	servedWrites := float64(t.acked[0] + t.acked[1])
	routedOps := float64(base.attempted + t.reads + t.writes)
	problems := checkCounters(w, dl, int(servedReads))
	if t.firstErr != nil {
		problems = append(problems, fmt.Errorf("%d of %d executions failed, first: %w", t.failed, t.attempted, t.firstErr))
	}

	self, whole := selfTimes(tr.spans), durations(tr.spans)
	untraced := medianUs(append(append([]int64(nil), base.reads...), base.writes...))
	coldDelta := func(name string) float64 {
		a, _ := coldAfter.Get(name)
		b, _ := coldBefore.Get(name)
		return float64(a - b)
	}
	var dur durabilityResult
	if servedWrites > 0 {
		if dur, err = c.durability(d, t.acked); err != nil {
			problems = append(problems, err)
		}
	}
	res := &passResult{Correct: len(problems) == 0, Attempted: t.attempted, Failed: t.failed, Metrics: map[string]metric{}}
	for _, m := range []struct {
		name  string
		value float64
		unit  string
	}{
		{"shard.hop_us", medianUs(self["routed"]), "us"},
		{"server.hop_us", medianUs(self["direct"]), "us"},
		{"wire.codec_us", medianUs(self["wire.codec"]), "us"},
		{"sql.parse_us", medianUs(self["sql.parse"]), "us"},
		{"plan.select_us", medianUs(self["plan.select"]), "us"},
		{"exec.collect_us", medianUs(self["exec.collect"]), "us"},
		{"engine.other_us", medianUs(self["embedded"]), "us"},
		{"exec.pages_per_op", ratio(dl["bufferpool.page_reads"], servedReads+servedWrites), "count"},
		{"bufferpool.hit_ratio", ratio(dl["bufferpool.page_hits"], dl["bufferpool.page_reads"]), "ratio"},
		{"ann.candidates_per_op", ratio(dl["ann.candidates"], dl["plan.vector_recommend"]), "count"},
		{"ann.probed_per_op", ratio(dl["ann.probed_centroids"], dl["plan.vector_recommend"]), "count"},
		{"ann.exact_fallback_ratio", ratio(dl["ann.exact_fallbacks"], dl["plan.vector_recommend"]), "ratio"},
		{"wal.append_us", medianUs(self["wal.append"]), "us"},
		{"wal.fsync_us", medianUs(self["wal.fsync"]), "us"},
		{"wal.bytes_per_insert", ratio(dl["wal.append_bytes"], servedWrites), "B"},
		{"wal.syncs_per_insert", ratio(dl["wal.syncs"], servedWrites), "count"},
		{"rec.rebuilds", dl["rec.builds"], "count"},
		{"rec.rebuild_stall_share", dl["rec.build_ns"] / float64(elapsed.Nanoseconds()), "ratio"},
		{"plan.expected_per_read", ratio(dl[strategyCounters[w.strategy]], servedReads), "ratio"},
		{"shard.routed_user_per_op", ratio(dl["shard.routed_user"], routedOps), "ratio"},
		{"shard.fanout", dl["shard.fanout"], "count"},
		{"shard.retries", dl["shard.retries"], "count"},
		{"server.rejected_busy", dl["server.rejected_busy"] + dl["shard.rejected_busy"], "count"},
		{"storage.cold_misses_per_op", ratio(coldDelta("bufferpool.page_misses"), float64(t.cold)), "count"},
		{"storage.cold_evictions_per_op", ratio(coldDelta("bufferpool.evictions"), float64(t.cold)), "count"},
		{"persist.recovery_s", dur.recovery.Seconds(), "s"},
		{"persist.acked_writes_lost", float64(dur.lost), "count"},
		{"trace.overhead_pct", 100 * ratio(medianUs(whole["routed"])-untraced, untraced), "%"},
	} {
		res.Metrics[m.name] = metric{m.value, m.unit}
		report(cfg.out, w.name, m.name, res.Metrics[m.name])
	}
	// The rungs themselves, un-gated, for the README's ladder table.
	for _, name := range []string{"routed", "direct", "embedded"} {
		report(cfg.out, w.name, "ladder."+name+"_p50_us", metric{medianUs(whole[name]), "us"})
	}
	report(cfg.out, w.name, "ladder.ops", metric{float64(len(whole["routed"])), "count"})
	for _, p := range problems {
		fmt.Fprintf(cfg.out, "%-16s WRONG %v\n", w.name, p)
	}
	return res, tr.spans, nil
}
