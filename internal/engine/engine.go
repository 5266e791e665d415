// Package engine wires the subsystems into a working database: it
// dispatches SQL statements (DDL, DML, CREATE/DROP RECOMMENDER, and
// recommendation-aware SELECTs) and connects rating inserts to model
// maintenance and histogram statistics.
package engine

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"recdb/internal/catalog"
	"recdb/internal/exec"
	"recdb/internal/expr"
	"recdb/internal/metrics"
	"recdb/internal/plan"
	"recdb/internal/rec"
	"recdb/internal/reccache"
	"recdb/internal/sql"
	"recdb/internal/storage"
	"recdb/internal/types"
	"recdb/internal/wal"
)

// Config tunes a new engine.
type Config struct {
	// PoolPages is the buffer-pool capacity per table (0 = default).
	PoolPages int
	// Rec configures model building, maintenance and the recommenders'
	// caches.
	Rec rec.Options
	// WALSyncEvery is the write-ahead log's group-commit factor (1 =
	// fsync every commit), applied whenever a log is attached.
	WALSyncEvery int
	// WALSyncInterval bounds group-commit latency: with WALSyncEvery > 1,
	// the log fsyncs after that many commits or this long after the first
	// unsynced one, whichever comes first.
	WALSyncInterval time.Duration
	// SnapshotRetain is consumed by the recdb layer's checkpoint path: how
	// many snapshot generations to keep on disk (0 = default 2). The
	// engine itself does not read it.
	SnapshotRetain int
}

// Engine is one embedded database instance.
type Engine struct {
	cat     *catalog.Catalog
	stats   *storage.Stats
	rec     *rec.Manager
	planner *plan.Planner
	cfg     Config
	reg     *metrics.Registry
	em      engineMetrics

	// commitMu frames durability and DDL (txn.go has the whole protocol):
	// DML holds it shared plus its table's gate, an explicit transaction
	// holds it shared for its lifetime, and DDL, Checkpoint, Recover and
	// Close hold it exclusively. It guards the log fields.
	commitMu sync.RWMutex
	log      *wal.Log // write-ahead log (nil while purely in memory)
	logDir   string   // the durable home the log lives under

	// gateMu guards the lazily-created table write gates; txnGate admits
	// one explicit transaction at a time.
	gateMu     sync.Mutex
	tableGates map[string]chan struct{}
	txnGate    chan struct{}

	// txnSeq issues transaction ids: explicit transactions and autocommit
	// statements whose WAL group spans more than one record.
	txnSeq atomic.Uint64
}

// engineMetrics holds the engine-level instruments, resolved once at New
// so the query path never touches the registry's lock.
type engineMetrics struct {
	queries        *metrics.Counter
	rowsReturned   *metrics.Counter
	queryNanos     *metrics.Histogram
	recommend      *metrics.Counter // full-scan RECOMMEND plans
	filterRec      *metrics.Counter
	joinRec        *metrics.Counter
	indexRec       *metrics.Counter // RecScoreIndex probe plans
	vectorRec      *metrics.Counter // IVF probe plans
	analyzeQueries *metrics.Counter
}

// mutates reports whether a statement changes durable state: anything
// but SELECT/EXPLAIN and transaction control.
func mutates(stmt sql.Statement) bool {
	switch stmt.(type) {
	case *sql.Select, *sql.Explain, *sql.Begin, *sql.Commit, *sql.Rollback:
		return false
	}
	return true
}

// New creates an empty engine.
func New(cfg Config) *Engine {
	reg := metrics.NewRegistry()
	stats := &storage.Stats{}
	bridgeStorageStats(reg, stats)
	cfg.Rec.Metrics = rec.Metrics{
		Builds:            reg.Counter("rec.builds"),
		BuildFailures:     reg.Counter("rec.build_failures"),
		BuildNanos:        reg.Histogram("rec.build_ns"),
		HealthTransitions: reg.Counter("rec.health_transitions"),
		Cache: reccache.Metrics{
			Queries:  reg.Counter("reccache.queries"),
			Updates:  reg.Counter("reccache.updates"),
			Runs:     reg.Counter("reccache.runs"),
			Admitted: reg.Counter("reccache.admitted"),
			Evicted:  reg.Counter("reccache.evicted"),
		},
	}
	cat := catalog.New(stats, cfg.PoolPages)
	mgr := rec.NewManager(cat, cfg.Rec)
	e := &Engine{
		cat:        cat,
		stats:      stats,
		rec:        mgr,
		cfg:        cfg,
		reg:        reg,
		tableGates: make(map[string]chan struct{}),
		txnGate:    make(chan struct{}, 1),
	}
	e.em = engineMetrics{
		queries:        reg.Counter("exec.queries"),
		rowsReturned:   reg.Counter("exec.rows_returned"),
		queryNanos:     reg.Histogram("exec.query_ns"),
		recommend:      reg.Counter("plan.recommend"),
		filterRec:      reg.Counter("plan.filter_recommend"),
		joinRec:        reg.Counter("plan.join_recommend"),
		indexRec:       reg.Counter("plan.index_recommend"),
		vectorRec:      reg.Counter("plan.vector_recommend"),
		analyzeQueries: reg.Counter("exec.analyze_queries"),
	}
	e.planner = &plan.Planner{
		Catalog: cat,
		Rec:     mgr,
		VecMetrics: exec.VectorMetrics{
			ProbedCentroids: reg.Counter("ann.probed_centroids"),
			Candidates:      reg.Counter("ann.candidates"),
			ExactFallbacks:  reg.Counter("ann.exact_fallbacks"),
			Widenings:       reg.Counter("ann.widenings"),
		},
	}
	return e
}

// Catalog exposes the table registry (examples and benches).
func (e *Engine) Catalog() *catalog.Catalog { return e.cat }

// Recommenders exposes the recommender manager.
func (e *Engine) Recommenders() *rec.Manager { return e.rec }

// Planner exposes the planner (ablation benchmarks flip its switches).
func (e *Engine) Planner() *plan.Planner { return e.planner }

// Stats exposes the shared page-I/O counters.
func (e *Engine) Stats() *storage.Stats { return e.stats }

// Metrics exposes the engine-wide instrument registry. It is always
// non-nil; subsystems record into it with atomic operations only, so
// reading a Snapshot at any time is race-free.
func (e *Engine) Metrics() *metrics.Registry { return e.reg }

// bridgeStorageStats reports the shared page-I/O atomics through the
// registry without double-counting: the bridge reads the live values at
// snapshot time.
func bridgeStorageStats(reg *metrics.Registry, stats *storage.Stats) {
	reg.RegisterFunc("bufferpool.page_reads", stats.PageReads.Load)
	reg.RegisterFunc("bufferpool.page_misses", stats.PageMisses.Load)
	reg.RegisterFunc("bufferpool.page_hits", func() int64 {
		return stats.PageReads.Load() - stats.PageMisses.Load()
	})
	reg.RegisterFunc("bufferpool.page_writes", stats.PageWrites.Load)
	reg.RegisterFunc("bufferpool.evictions", stats.Evictions.Load)
}

// countExecuted accounts for an executed SELECT or EXPLAIN ANALYZE: it
// tallies which recommendation path the planner chose (an IndexRecommend
// plan probes pre-computed RecScoreIndex entries, the others score
// online) and records the statement's §IV-D demand.
func (e *Engine) countExecuted(ex *plan.Explain) {
	ex.RecordDemand()
	switch ex.Strategy {
	case "Recommend":
		e.em.recommend.Inc()
	case "FilterRecommend":
		e.em.filterRec.Inc()
	case "JoinRecommend":
		e.em.joinRec.Inc()
	case "IndexRecommend":
		e.em.indexRec.Inc()
	case "VectorRecommend":
		e.em.vectorRec.Inc()
	}
}

// Result reports the effect of a non-query statement.
type Result struct {
	RowsAffected int64
}

// QueryResult is a fully materialized SELECT result.
type QueryResult struct {
	Schema  *types.Schema
	Rows    []types.Row
	Explain *plan.Explain
}

// Exec runs a single statement of any kind. SELECTs are allowed and
// report their row count.
func (e *Engine) Exec(query string) (Result, error) {
	stmt, err := sql.Parse(query)
	if err != nil {
		return Result{}, err
	}
	return e.ExecParsedCtx(context.Background(), stmt, query)
}

// ExecParsedCtx runs an already-parsed autocommit statement with its
// source text (the text a DDL statement is logged as) under a context.
// It is the commit sequence for an autocommit statement (txn.go): DML
// takes the commit lock shared and its table's gate, DDL the commit lock
// exclusively; then apply, log, maintain. A read-only statement takes no
// lock and observes cancellation
// between rows; a mutating one checks the context before it starts (and
// while it waits on a gate) and then runs to completion — an applied
// mutation is never half-aborted, so the log and the in-memory state
// cannot diverge on a timeout. A mutating statement that fails part-way
// (say, a primary-key violation on the third row of a multi-row INSERT)
// is backed out before the error returns: autocommit statements are
// atomic in memory, not just in the log.
func (e *Engine) ExecParsedCtx(ctx context.Context, stmt sql.Statement, text string) (Result, error) {
	if !mutates(stmt) {
		return e.execReadOnlyCtx(ctx, stmt)
	}
	if err := ctx.Err(); err != nil {
		return Result{}, fmt.Errorf("engine: statement not started: %w", err)
	}
	if err := e.refuseModelWrite(stmt); err != nil {
		return Result{}, err
	}
	if table := dmlTable(stmt); table != "" {
		e.commitMu.RLock()
		defer e.commitMu.RUnlock()
		gate := e.tableGate(table)
		if err := acquire(ctx, gate); err != nil {
			return Result{}, err
		}
		defer release(gate)
	} else {
		e.commitMu.Lock()
		defer e.commitMu.Unlock()
	}
	res, muts, err := e.execMutation(stmt, text)
	return res, e.commitLocked(0, muts, err)
}

// refuseModelWrite fails DML and DROP TABLE aimed at a recommender's model
// relation (rec.ModelTableError), and CREATE TABLE of a reserved name
// (ReservedNameError), before the statement takes a lock or is logged.
// Replay redoes logged records below this check.
func (e *Engine) refuseModelWrite(stmt sql.Statement) error {
	table := dmlTable(stmt)
	switch s := stmt.(type) {
	case *sql.DropTable:
		table = s.Name
	case *sql.CreateTable:
		for _, prefix := range reservedPrefixes {
			if len(s.Name) >= len(prefix) && strings.EqualFold(s.Name[:len(prefix)], prefix) {
				return &ReservedNameError{Table: s.Name, Prefix: prefix}
			}
		}
	}
	if table == "" {
		return nil
	}
	return e.rec.CheckWritable(stmtName(stmt), table)
}

// reservedPrefixes are the table-name prefixes the engine keeps for its
// own relations: a recommender's model relations (_rec_) and the OnTopDB
// scratch table (_ontop_), which no snapshot stores.
var reservedPrefixes = []string{"_rec_", "_ontop_"}

// ReservedNameError refuses CREATE TABLE of a name that starts with one of
// the reserved prefixes.
type ReservedNameError struct {
	Table  string
	Prefix string
}

func (e *ReservedNameError) Error() string {
	return fmt.Sprintf("engine: CREATE TABLE %q refused: names starting with %q are reserved for the engine's own relations", e.Table, e.Prefix)
}

// execReadOnlyCtx runs the non-mutating statement kinds.
func (e *Engine) execReadOnlyCtx(ctx context.Context, stmt sql.Statement) (Result, error) {
	switch s := stmt.(type) {
	case *sql.Select:
		res, err := e.queryCtx(ctx, s)
		if err != nil {
			return Result{}, err
		}
		return Result{RowsAffected: int64(len(res.Rows))}, nil
	case *sql.Explain:
		res, err := e.explain(s)
		if err != nil {
			return Result{}, err
		}
		return Result{RowsAffected: int64(len(res.Rows))}, nil
	case *sql.Begin, *sql.Commit, *sql.Rollback:
		return Result{}, fmt.Errorf("engine: %s requires transaction state that outlives the statement; use DB.Begin, a Session, or ExecScript", stmtName(stmt))
	default:
		return Result{}, fmt.Errorf("engine: unsupported statement %T", stmt)
	}
}

// execMutation dispatches the mutating statement kinds and returns the
// tuple-level mutations applied (for DDL, one RecStmt record carrying
// text, the statement's source). On error the returned mutations are the
// changes applied before the failure — the caller undoes them.
func (e *Engine) execMutation(stmt sql.Statement, text string) (Result, []mutation, error) {
	ddl := []mutation{{kind: wal.RecStmt, text: text}}
	switch s := stmt.(type) {
	case *sql.CreateTable:
		r, err := e.execCreateTable(s)
		if err != nil {
			return r, nil, err
		}
		return r, ddl, nil
	case *sql.DropTable:
		if s.IfExists && !e.cat.Has(s.Name) {
			return Result{}, ddl, nil
		}
		if err := e.cat.DropTable(s.Name); err != nil {
			return Result{}, nil, err
		}
		return Result{}, ddl, nil
	case *sql.CreateIndex:
		tab, err := e.cat.Get(s.Table)
		if err != nil {
			return Result{}, nil, err
		}
		if _, err := tab.CreateIndex(s.Name, s.Column); err != nil {
			return Result{}, nil, err
		}
		return Result{}, ddl, nil
	case *sql.Insert:
		return e.execInsert(s)
	case *sql.Delete:
		return e.execDelete(s)
	case *sql.Update:
		return e.execUpdate(s)
	case *sql.CreateRecommender:
		if _, err := e.rec.Create(s.Name, s.Table, s.UserCol, s.ItemCol, s.RatingCol, s.Algorithm); err != nil {
			return Result{}, nil, err
		}
		return Result{}, ddl, nil
	case *sql.DropRecommender:
		if s.IfExists {
			if _, ok := e.rec.Get(s.Name); !ok {
				return Result{}, ddl, nil
			}
		}
		if err := e.rec.Drop(s.Name); err != nil {
			return Result{}, nil, err
		}
		return Result{}, ddl, nil
	default:
		return Result{}, nil, fmt.Errorf("engine: unsupported statement %T", stmt)
	}
}

// Query runs a SELECT and materializes its result.
func (e *Engine) Query(query string) (*QueryResult, error) {
	return e.QueryCtx(context.Background(), query)
}

// QueryCtx runs a SELECT under a context: the executor checks ctx between
// rows in every operator of the plan, so a canceled or deadline-expired
// query stops promptly even inside a blocking sort or join build. The
// returned error wraps ctx.Err() when cancellation cut the query short.
func (e *Engine) QueryCtx(ctx context.Context, query string) (*QueryResult, error) {
	stmt, err := sql.Parse(query)
	if err != nil {
		return nil, err
	}
	switch s := stmt.(type) {
	case *sql.Select:
		return e.queryCtx(ctx, s)
	case *sql.Explain:
		return e.explain(s)
	default:
		return nil, fmt.Errorf("engine: Query expects a SELECT or EXPLAIN statement")
	}
}

// explain plans the wrapped query and renders the operator tree. Plain
// EXPLAIN never executes; EXPLAIN ANALYZE instruments every operator,
// runs the query to completion, and annotates each plan line with actual
// rows, loops, inclusive wall time, and buffer-pool hits/misses.
func (e *Engine) explain(s *sql.Explain) (*QueryResult, error) {
	op, explain, err := e.planner.PlanSelect(s.Query)
	if err != nil {
		return nil, err
	}
	var lines []string
	if s.Analyze {
		root := exec.Instrument(op, e.stats)
		start := time.Now()
		resultRows, err := exec.Collect(root)
		if err != nil {
			return nil, err
		}
		elapsed := time.Since(start)
		e.em.analyzeQueries.Inc()
		e.em.rowsReturned.Add(int64(len(resultRows)))
		e.countExecuted(explain)
		lines = plan.DescribePlan(root)
		lines = append(lines, fmt.Sprintf("Execution time: %s", elapsed))
	} else {
		lines = plan.DescribePlan(op)
	}
	rows := make([]types.Row, 0, len(lines)+1)
	if explain.Strategy != "" {
		rows = append(rows, types.Row{types.NewText("strategy: " + explain.Strategy)})
	}
	for _, l := range lines {
		rows = append(rows, types.Row{types.NewText(l)})
	}
	return &QueryResult{
		Schema:  types.NewSchema(types.Column{Name: "plan", Kind: types.KindText}),
		Rows:    rows,
		Explain: explain,
	}, nil
}

func (e *Engine) query(sel *sql.Select) (*QueryResult, error) {
	return e.queryCtx(context.Background(), sel)
}

func (e *Engine) queryCtx(ctx context.Context, sel *sql.Select) (*QueryResult, error) {
	op, explain, err := e.planner.PlanSelect(sel)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	rows, err := exec.Collect(exec.WithContext(ctx, op))
	if err != nil {
		return nil, err
	}
	e.em.queries.Inc()
	e.em.rowsReturned.Add(int64(len(rows)))
	e.em.queryNanos.ObserveSince(start)
	e.countExecuted(explain)
	return &QueryResult{Schema: op.Schema(), Rows: rows, Explain: explain}, nil
}

// ExecScript runs a semicolon-separated script, stopping at the first
// error. It returns the sum of affected rows.
func (e *Engine) ExecScript(script string) (Result, error) {
	stmts, err := sql.ParseScript(script)
	if err != nil {
		return Result{}, err
	}
	var total Result
	for _, s := range stmts {
		r, err := e.ExecParsedCtx(context.Background(), s.Stmt, s.Text)
		if err != nil {
			return total, err
		}
		total.RowsAffected += r.RowsAffected
	}
	return total, nil
}

func (e *Engine) execCreateTable(s *sql.CreateTable) (Result, error) {
	if s.IfNotExists && e.cat.Has(s.Name) {
		return Result{}, nil
	}
	cols := make([]types.Column, len(s.Cols))
	pk := -1
	for i, c := range s.Cols {
		kind, err := types.KindFromName(c.TypeName)
		if err != nil {
			return Result{}, err
		}
		cols[i] = types.Column{Name: c.Name, Kind: kind}
		if c.PrimaryKey {
			if pk >= 0 {
				return Result{}, fmt.Errorf("engine: multiple primary keys on %q", s.Name)
			}
			pk = i
		}
	}
	_, err := e.cat.CreateTable(s.Name, types.NewSchema(cols...), pk)
	return Result{}, err
}

func (e *Engine) execInsert(s *sql.Insert) (Result, []mutation, error) {
	tab, err := e.cat.Get(s.Table)
	if err != nil {
		return Result{}, nil, err
	}
	// Map the column list (or identity).
	colIdx := make([]int, 0, tab.Schema.Len())
	if len(s.Cols) == 0 {
		for i := 0; i < tab.Schema.Len(); i++ {
			colIdx = append(colIdx, i)
		}
	} else {
		for _, name := range s.Cols {
			idx, err := tab.Schema.Resolve("", name)
			if err != nil {
				return Result{}, nil, err
			}
			colIdx = append(colIdx, idx)
		}
	}
	empty := types.NewSchema()
	var inserted int64
	var muts []mutation
	for _, exprRow := range s.Rows {
		if len(exprRow) != len(colIdx) {
			return Result{RowsAffected: inserted}, muts, fmt.Errorf("engine: INSERT row has %d values, expected %d", len(exprRow), len(colIdx))
		}
		row := make(types.Row, tab.Schema.Len())
		for i := range row {
			row[i] = types.Null()
		}
		for i, ex := range exprRow {
			c, err := expr.Compile(ex, empty)
			if err != nil {
				return Result{RowsAffected: inserted}, muts, err
			}
			v, err := c(nil)
			if err != nil {
				return Result{RowsAffected: inserted}, muts, err
			}
			// Parse text literals destined for geometry columns.
			if v.Kind() == types.KindText && tab.Schema.Columns[colIdx[i]].Kind == types.KindGeometry {
				g, err := expr.Compile(&sql.Call{Name: "ST_GeomFromText", Args: []sql.Expr{ex}}, empty)
				if err == nil {
					if gv, gerr := g(nil); gerr == nil {
						v = gv
					}
				}
			}
			row[colIdx[i]] = v
		}
		if _, err := tab.Insert(row); err != nil {
			return Result{RowsAffected: inserted}, muts, err
		}
		muts = append(muts, mutation{kind: wal.RecInsert, table: s.Table, row: row})
		inserted++
	}
	return Result{RowsAffected: inserted}, muts, nil
}

func (e *Engine) execDelete(s *sql.Delete) (Result, []mutation, error) {
	tab, err := e.cat.Get(s.Table)
	if err != nil {
		return Result{}, nil, err
	}
	schema := tab.Schema.WithQualifier(s.Table)
	var pred expr.Compiled
	if s.Where != nil {
		if pred, err = expr.Compile(s.Where, schema); err != nil {
			return Result{}, nil, err
		}
	}
	rids, err := matchRIDs(tab, pred)
	if err != nil {
		return Result{}, nil, err
	}
	var muts []mutation
	var affected int64
	for _, rid := range rids {
		// Remember the victim's content: the logical WAL record carries it
		// (replay locates rows by content) and rollback re-inserts it.
		row, err := tab.Heap.Get(rid)
		if err != nil {
			return Result{RowsAffected: affected}, muts, err
		}
		if err := tab.Delete(rid); err != nil {
			return Result{RowsAffected: affected}, muts, err
		}
		muts = append(muts, mutation{kind: wal.RecDelete, table: s.Table, old: row})
		affected++
	}
	return Result{RowsAffected: affected}, muts, nil
}

func (e *Engine) execUpdate(s *sql.Update) (Result, []mutation, error) {
	tab, err := e.cat.Get(s.Table)
	if err != nil {
		return Result{}, nil, err
	}
	schema := tab.Schema.WithQualifier(s.Table)
	var pred expr.Compiled
	if s.Where != nil {
		if pred, err = expr.Compile(s.Where, schema); err != nil {
			return Result{}, nil, err
		}
	}
	type setter struct {
		col int
		val expr.Compiled
	}
	setters := make([]setter, len(s.Set))
	for i, a := range s.Set {
		col, err := schema.Resolve("", a.Column)
		if err != nil {
			return Result{}, nil, err
		}
		val, err := expr.Compile(a.Value, schema)
		if err != nil {
			return Result{}, nil, err
		}
		setters[i] = setter{col, val}
	}
	rids, err := matchRIDs(tab, pred)
	if err != nil {
		return Result{}, nil, err
	}
	var muts []mutation
	var affected int64
	for _, rid := range rids {
		row, err := tab.Heap.Get(rid)
		if err != nil {
			return Result{RowsAffected: affected}, muts, err
		}
		updated := row.Clone()
		for _, st := range setters {
			v, err := st.val(row)
			if err != nil {
				return Result{RowsAffected: affected}, muts, err
			}
			updated[st.col] = v
		}
		if _, err := tab.Update(rid, updated); err != nil {
			return Result{RowsAffected: affected}, muts, err
		}
		muts = append(muts, mutation{kind: wal.RecUpdate, table: s.Table, row: updated, old: row})
		affected++
	}
	return Result{RowsAffected: affected}, muts, nil
}

func matchRIDs(tab *catalog.Table, pred expr.Compiled) ([]storage.RID, error) {
	var rids []storage.RID
	it := tab.Heap.Scan()
	defer it.Close()
	for {
		row, rid, ok, err := it.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			return rids, nil
		}
		if pred != nil {
			v, err := pred(row)
			if err != nil {
				return nil, err
			}
			if !expr.Truthy(v) {
				continue
			}
		}
		rids = append(rids, rid)
	}
}

// Close syncs and closes the write-ahead log, if attached, and stops the
// recommenders' cache daemons.
func (e *Engine) Close() {
	e.commitMu.Lock()
	if e.log != nil {
		// Best effort: grouped commits are flushed; a sync failure here
		// cannot be reported, which is why per-commit sync is the default.
		_ = e.log.Close()
		e.log = nil
	}
	e.commitMu.Unlock()
	for _, r := range e.rec.List() {
		r.Cache().Stop()
	}
}
