// Package recdb is an embeddable Go reproduction of RecDB ("Database
// System Support for Personalized Recommendation Applications", ICDE
// 2017): a relational database engine with recommendation functionality
// built into the kernel.
//
// The engine speaks a SQL dialect extended with the paper's statements:
//
//	CREATE RECOMMENDER MovieRec ON ratings
//	    USERS FROM uid ITEMS FROM iid RATINGS FROM ratingval
//	    USING ItemCosCF;
//
//	SELECT R.iid, R.ratingval FROM ratings AS R
//	    RECOMMEND R.iid TO R.uid ON R.ratingval USING ItemCosCF
//	    WHERE R.uid = 1
//	    ORDER BY R.ratingval DESC LIMIT 10;
//
// Six recommendation algorithms are supported: the paper's five (ItemCosCF,
// ItemPearCF, UserCosCF, UserPearCF, SVD) plus a non-personalized
// Popularity extension. Recommendation runs as a query operator inside
// the executor, under one of five strategies — Recommend,
// FilterRecommend, JoinRecommend, IndexRecommend (the RecScoreIndex) and
// VectorRecommend (the IVF index over SVD factors) — so selections, joins,
// and top-k ranking compose with it in a single plan. Pre-computation and
// hotness-based caching further cut latency for interactive workloads.
//
// Quick start:
//
//	db := recdb.Open()
//	defer db.Close()
//	db.MustExec(`CREATE TABLE ratings (uid INT, iid INT, ratingval FLOAT)`)
//	db.MustExec(`INSERT INTO ratings VALUES (1, 1, 4.5), (1, 2, 3.0), (2, 1, 5.0)`)
//	db.MustExec(`CREATE RECOMMENDER R ON ratings USERS FROM uid ITEMS FROM iid RATINGS FROM ratingval`)
//	rows, _ := db.Query(`SELECT R.iid, R.ratingval FROM ratings R
//	    RECOMMEND R.iid TO R.uid ON R.ratingval WHERE R.uid = 2
//	    ORDER BY R.ratingval DESC LIMIT 10`)
//	for rows.Next() {
//	    var item int64
//	    var score float64
//	    _ = rows.Scan(&item, &score)
//	}
package recdb

import (
	"context"
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"recdb/internal/engine"
	"recdb/internal/fault"
	"recdb/internal/rec"
	"recdb/internal/reccache"
	"recdb/internal/sql"
	"recdb/internal/types"
)

// Value is a SQL value (NULL, BIGINT, DOUBLE, TEXT, BOOLEAN, or GEOMETRY).
type Value = types.Value

// Row is one result tuple.
type Row = types.Row

// Option configures Open.
type Option func(*engine.Config)

// WithPoolPages sets the per-table buffer-pool capacity in 8 KiB pages.
func WithPoolPages(n int) Option {
	return func(c *engine.Config) { c.PoolPages = n }
}

// WithSVD sets the matrix-factorization hyperparameters (factor count,
// SGD epochs, learning rate, and the regularization λ of Equation 3).
func WithSVD(factors, epochs int, rate, lambda float64) Option {
	return func(c *engine.Config) {
		c.Rec.Build.SVDFactors = factors
		c.Rec.Build.SVDEpochs = epochs
		c.Rec.Build.SVDRate = rate
		c.Rec.Build.SVDLambda = lambda
	}
}

// WithRebuildThresholdPct sets N of the maintenance policy: models rebuild
// when new ratings reach N% of the ratings used for the current model.
func WithRebuildThresholdPct(pct float64) Option {
	return func(c *engine.Config) { c.Rec.RebuildThresholdPct = pct }
}

// WithHotnessThreshold sets HOTNESS-THRESHOLD for the recommendation
// cache: 0 materializes the RecTree of every user with demand, above 1
// nothing. The default is 0.5.
func WithHotnessThreshold(t float64) Option {
	return func(c *engine.Config) { c.Rec.HotnessThreshold = t }
}

// WithWALSyncEvery sets the write-ahead log's group-commit factor: 1
// (the default) fsyncs on every commit, n > 1 fsyncs every n commits (a
// crash can lose the last < n acknowledged statements), and a negative
// value never fsyncs (durability rides on SaveTo checkpoints alone).
func WithWALSyncEvery(n int) Option {
	return func(c *engine.Config) { c.WALSyncEvery = n }
}

// WithWALSyncInterval bounds group-commit latency: together with
// WithWALSyncEvery(n > 1), the write-ahead log fsyncs after n commits *or*
// d after the first unsynced commit, whichever comes first. Without it, a
// burst that ends mid-group strands its last < n commits unsynced until
// the next burst — exactly the shape server workloads produce. It has no
// effect under the default per-commit sync (n = 1) or the never-sync
// policy (n < 0).
func WithWALSyncInterval(d time.Duration) Option {
	return func(c *engine.Config) { c.WALSyncInterval = d }
}

// WithSnapshotRetain sets how many snapshot generations SaveTo keeps on
// disk (default 2: the previous good snapshot always survives the next
// checkpoint). Deeper retention costs disk space but lets OpenDir fall
// back past that many corrupt newer generations.
func WithSnapshotRetain(n int) Option {
	return func(c *engine.Config) { c.SnapshotRetain = n }
}

// DB is an embedded RecDB instance. It is safe for concurrent readers;
// writes are serialized per table, so writers to different tables
// proceed concurrently. Multi-statement transactions are opened with
// Begin (or BEGIN through a Session) — see Tx. The engine owns the
// locks, the write-ahead log and the commit order; DB adds the snapshot
// orchestration (SaveTo, OpenDir) on top.
type DB struct {
	eng     *engine.Engine
	fs      fault.FS      // filesystem for snapshots and the log
	gen     atomic.Uint64 // snapshot generation last written or recovered
	skipped int           // corrupt generations skipped during recovery
	retain  int           // snapshot generations kept, from WithSnapshotRetain
}

// Open creates a new in-memory database. Call SaveTo to checkpoint it to
// disk and make it durable from that point on.
func Open(opts ...Option) *DB {
	cfg := applyOptions(opts)
	return &DB{eng: engine.New(cfg), fs: fault.OS, retain: cfg.SnapshotRetain}
}

// applyOptions is the engine configuration opts make of the defaults.
func applyOptions(opts []Option) engine.Config {
	cfg := engine.Config{Rec: rec.Options{HotnessThreshold: rec.DefaultHotnessThreshold}}
	for _, o := range opts {
		o(&cfg)
	}
	return cfg
}

// Close stops background workers and syncs and closes the write-ahead
// log, if attached. The DB must not be used afterwards.
func (db *DB) Close() { db.eng.Close() }

// Result reports the effect of a statement.
type Result struct {
	// RowsAffected counts inserted/updated/deleted rows (or result rows
	// for a SELECT run through Exec).
	RowsAffected int64
}

// Exec runs one SQL statement. When the database is durable, the
// statement's tuple-level changes are appended to the write-ahead log
// before Exec returns. DML is serialized per table (writers to distinct
// tables proceed concurrently); DDL is exclusive. Transaction control
// (BEGIN/COMMIT/ROLLBACK) needs statement-spanning state — use Begin, a
// Session, or ExecScript for that.
func (db *DB) Exec(query string) (Result, error) {
	return db.ExecContext(context.Background(), query)
}

// ExecContext is Exec under a context: cancellation is observed before
// the statement starts and between rows of read-only statements, never
// mid-mutation.
func (db *DB) ExecContext(ctx context.Context, query string) (Result, error) {
	stmt, err := sql.Parse(query)
	if err != nil {
		return Result{}, err
	}
	r, err := db.eng.ExecParsedCtx(ctx, stmt, query)
	return Result{RowsAffected: r.RowsAffected}, err
}

// MustExec runs one SQL statement and panics on error. Intended for
// examples and tests.
func (db *DB) MustExec(query string) Result {
	r, err := db.Exec(query)
	if err != nil {
		//lint:ignore nopanic MustExec's documented contract, mirroring template.Must
		panic(fmt.Sprintf("recdb: %v", err))
	}
	return r
}

// ExecScript runs a semicolon-separated script, stopping at the first
// error. Scripts may open transactions: BEGIN ... COMMIT spans inside
// the script commit atomically, and a script that ends with a
// transaction still open has that transaction rolled back and reports
// an error.
func (db *DB) ExecScript(script string) (Result, error) {
	return db.ExecScriptContext(context.Background(), script)
}

// ExecScriptContext runs a semicolon-separated script, stopping at the
// first error — see ExecScript. Cancellation is observed between
// statements and between rows of read-only statements, never
// mid-mutation: every statement is either fully applied (and logged,
// when durable) or not started, so a timeout cannot tear a half-applied
// write. The script runs through an ephemeral Session, so transaction
// control statements work and an unfinished transaction is rolled back
// on exit.
func (db *DB) ExecScriptContext(ctx context.Context, script string) (Result, error) {
	stmts, err := sql.ParseScript(script)
	if err != nil {
		return Result{}, err
	}
	sess := db.NewSession()
	defer sess.Close()
	var total Result
	for _, s := range stmts {
		r, err := sess.execParsed(ctx, s.Stmt, s.Text)
		if err != nil {
			return total, err
		}
		total.RowsAffected += r.RowsAffected
	}
	if sess.InTransaction() {
		_ = sess.Close()
		return total, fmt.Errorf("recdb: script ended inside an open transaction (rolled back)")
	}
	return total, nil
}

// Query runs a SELECT (optionally with a RECOMMEND clause) and returns its
// materialized result.
func (db *DB) Query(query string) (*Rows, error) {
	return db.QueryContext(context.Background(), query)
}

// QueryContext runs a SELECT under a context: every operator in the plan
// checks cancellation between rows, so a canceled or deadline-expired
// query stops promptly even inside a blocking sort or join build and
// returns an error wrapping ctx.Err(). A context that can never be
// canceled adds no overhead.
func (db *DB) QueryContext(ctx context.Context, query string) (*Rows, error) {
	res, err := db.eng.QueryCtx(ctx, query)
	if err != nil {
		return nil, err
	}
	cols := make([]string, res.Schema.Len())
	for i, c := range res.Schema.Columns {
		cols[i] = c.Name
	}
	strategy := ""
	if res.Explain != nil {
		strategy = res.Explain.Strategy
	}
	return &Rows{cols: cols, rows: res.Rows, pos: -1, strategy: strategy}, nil
}

// Rows is a materialized query result. Iterate with Next, read with Row or
// Scan.
type Rows struct {
	cols     []string
	rows     []types.Row
	pos      int
	strategy string
}

// Columns returns the result column names.
func (r *Rows) Columns() []string { return r.cols }

// Len returns the number of result rows.
func (r *Rows) Len() int { return len(r.rows) }

// Strategy names the recommendation plan the optimizer chose
// ("Recommend", "FilterRecommend", "JoinRecommend", "IndexRecommend",
// "VectorRecommend"), or "" for plain queries. Useful for tests and
// EXPLAIN-style diagnostics.
func (r *Rows) Strategy() string { return r.strategy }

// Next advances to the next row; it returns false when exhausted.
func (r *Rows) Next() bool {
	if r.pos+1 >= len(r.rows) {
		return false
	}
	r.pos++
	return true
}

// Row returns the current row.
func (r *Rows) Row() Row {
	if r.pos < 0 || r.pos >= len(r.rows) {
		return nil
	}
	return r.rows[r.pos]
}

// All returns every row (independent of iteration state).
func (r *Rows) All() []Row { return r.rows }

// Scan copies the current row into dest pointers: *int64, *float64,
// *string, *bool, or *Value. Numeric values coerce between int64 and
// float64.
func (r *Rows) Scan(dest ...any) error {
	if r.pos < 0 || r.pos >= len(r.rows) {
		return fmt.Errorf("recdb: Scan called without a current row")
	}
	return types.ScanRow(r.rows[r.pos], r.cols, dest...)
}

// ---- Recommendation management ----

// recommenderCache returns the §IV-D cache of the recommender called name.
func (db *DB) recommenderCache(name string) (*reccache.Manager, error) {
	r, ok := db.eng.Recommenders().Get(name)
	if !ok {
		return nil, fmt.Errorf("recdb: no recommender %q", name)
	}
	return r.Cache(), nil
}

// RunCacheMaintenance triggers one pass of the hotness-based caching
// algorithm (Algorithm 4) for a recommender.
func (db *DB) RunCacheMaintenance(recommender string) (CacheDecision, error) {
	c, err := db.recommenderCache(recommender)
	if err != nil {
		return CacheDecision{}, err
	}
	dec := c.Run()
	return CacheDecision{Admitted: dec.Admitted, Evicted: dec.Evicted}, nil
}

// CacheDecision summarizes one cache-maintenance pass in users: Admitted
// users had their RecTrees filled whole, Evicted users had theirs dropped.
type CacheDecision struct {
	Admitted int
	Evicted  int
}

// Materialize fully pre-computes the RecScoreIndex for a recommender so
// subsequent top-k queries use the INDEXRECOMMEND path.
func (db *DB) Materialize(recommender string) error {
	c, err := db.recommenderCache(recommender)
	if err != nil {
		return err
	}
	return c.MaterializeAll()
}

// MaterializeUser pre-computes a single user's predictions.
func (db *DB) MaterializeUser(recommender string, user int64) error {
	c, err := db.recommenderCache(recommender)
	if err != nil {
		return err
	}
	return c.MaterializeUser(user)
}

// StartCacheDaemon runs the cache manager asynchronously every interval,
// as in §IV-D, each tick scoring with the recommender's model of that
// tick. Stop it with StopCacheDaemon or Close.
func (db *DB) StartCacheDaemon(recommender string, interval time.Duration) error {
	c, err := db.recommenderCache(recommender)
	if err != nil {
		return err
	}
	c.Start(interval)
	return nil
}

// StopCacheDaemon halts a recommender's background cache manager.
func (db *DB) StopCacheDaemon(recommender string) error {
	c, err := db.recommenderCache(recommender)
	if err != nil {
		return err
	}
	c.Stop()
	return nil
}

// ModelBuildTime reports how long the recommender's most recent model
// build took (Table II of the paper).
func (db *DB) ModelBuildTime(recommender string) (time.Duration, error) {
	r, ok := db.eng.Recommenders().Get(recommender)
	if !ok {
		return 0, fmt.Errorf("recdb: no recommender %q", recommender)
	}
	return r.BuildTime(), nil
}

// Stats reports cumulative page I/O: logical reads, buffer misses, and
// physical writes. The counts only rise; take deltas to measure a span.
func (db *DB) Stats() (reads, misses, writes int64) {
	return db.eng.Stats().Snapshot()
}

// Engine exposes the underlying engine for advanced integration (the
// bench harness uses it to flip planner ablation switches). Most callers
// never need it.
func (db *DB) Engine() *engine.Engine { return db.eng }

// Algorithms lists the supported recommendation algorithm names: the
// paper's five plus the non-personalized Popularity extension.
func Algorithms() []string {
	return []string{
		rec.ItemCosCF.String(), rec.ItemPearCF.String(),
		rec.UserCosCF.String(), rec.UserPearCF.String(),
		rec.SVD.String(), rec.Popularity.String(),
	}
}

// TableInfo describes one table or model relation.
type TableInfo struct {
	Name  string
	Rows  int64
	Pages uint32
}

// Tables lists the database's tables, and each recommender's model
// relations (names starting with "_rec_"), which hold no pages: they are
// read from the model in memory.
func (db *DB) Tables() []TableInfo {
	var out []TableInfo
	for _, name := range db.eng.Catalog().Names() {
		t, err := db.eng.Catalog().Get(name)
		if err != nil {
			continue
		}
		out = append(out, TableInfo{Name: t.Name, Rows: t.Heap.NumRows(), Pages: t.Heap.NumPages()})
	}
	for _, rel := range db.eng.Recommenders().Relations() {
		out = append(out, TableInfo{Name: rel.Name, Rows: rel.Len()})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// RecommenderInfo describes one created recommender.
type RecommenderInfo struct {
	Name      string
	Table     string
	Algorithm string
	BuildTime time.Duration
	Rebuilds  int
	Pending   int
}

// RecommenderHealth is a point-in-time view of one recommender's
// maintenance state. A degraded recommender keeps serving its last good
// model; maintenance retries the rebuild with exponential backoff.
type RecommenderHealth struct {
	Name    string
	Healthy bool
	// Rebuilds counts successful maintenance rebuilds; Pending counts
	// ratings inserted since the current model was built.
	Rebuilds int
	Pending  int
	// Failures counts consecutive failed rebuilds (0 when healthy), and
	// LastError is the most recent failure (nil when healthy).
	Failures  int
	LastError error
	// LastErrorAt and NextRetry frame the backoff window.
	LastErrorAt time.Time
	NextRetry   time.Time
}

// Health reports every recommender's maintenance health, sorted by name.
// A recommender whose background rebuild failed stays available — it
// answers from the previous model — and shows up here as unhealthy until
// a retry succeeds.
func (db *DB) Health() []RecommenderHealth {
	hs := db.eng.Recommenders().HealthAll()
	out := make([]RecommenderHealth, len(hs))
	for i, h := range hs {
		out[i] = RecommenderHealth{
			Name: h.Name, Healthy: h.Healthy,
			Rebuilds: h.Rebuilds, Pending: h.Pending,
			Failures: h.Failures, LastError: h.LastError,
			LastErrorAt: h.LastErrorAt, NextRetry: h.NextRetry,
		}
	}
	return out
}

// Recommenders lists the recommenders created with CREATE RECOMMENDER.
func (db *DB) Recommenders() []RecommenderInfo {
	var out []RecommenderInfo
	for _, r := range db.eng.Recommenders().List() {
		out = append(out, RecommenderInfo{
			Name: r.Name, Table: r.Table, Algorithm: r.Algo.String(),
			BuildTime: r.BuildTime(), Rebuilds: r.Rebuilds(), Pending: r.Pending(),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
