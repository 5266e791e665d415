package shard

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"recdb/client"
	"recdb/internal/frontend"
	"recdb/internal/metrics"
	"recdb/internal/sql"
	"recdb/internal/wire"
)

// Options tunes a Router. The zero value of every field but Shards
// serves with the defaults noted on each.
type Options struct {
	// Shards are the backend recdb-server addresses, in ring order. The
	// list (and its order) must match across routers for them to route
	// users identically.
	Shards []string
	// UserCol is the user-key column statements are partitioned on
	// (default "uid"). A RECOMMEND clause's own user column overrides it
	// per statement.
	UserCol string
	// UserTables pre-seeds tables known to carry the user column, for
	// deployments whose schema was not created through the router.
	// CREATE TABLE statements routed through the router supersede it.
	UserTables []string
	// PoolSize is the number of pipelined connections kept per shard
	// (default 2; each carries 16 in-flight requests).
	PoolSize int
	// Retries is how many times a failed attempt is retried against a
	// shard before the statement fails shard_down (default 2). Only
	// attempts that are safe to repeat retry: reads, and writes whose
	// request never reached the wire.
	Retries int
	// RetryBackoff is the first retry's delay; each further retry doubles
	// it (default 25ms).
	RetryBackoff time.Duration
	// HealthInterval is the probe cadence per shard (default 1s); probing
	// is how a downed shard comes back without live traffic risking it.
	HealthInterval time.Duration
	// Options are the client-facing front-end settings, the same set
	// recdb-server takes (MaxConns, QueryTimeout — which here bounds a
	// statement end to end, fan-out included — IdleTimeout, WriteTimeout,
	// Name, default "recdb-router", and Logf).
	frontend.Options
}

func (o Options) withDefaults() Options {
	if o.UserCol == "" {
		o.UserCol = "uid"
	}
	if o.PoolSize <= 0 {
		o.PoolSize = 2
	}
	if o.Retries < 0 {
		o.Retries = 0
	} else if o.Retries == 0 {
		o.Retries = 2
	}
	if o.RetryBackoff <= 0 {
		o.RetryBackoff = 25 * time.Millisecond
	}
	if o.HealthInterval <= 0 {
		o.HealthInterval = time.Second
	}
	if o.Name == "" {
		o.Name = "recdb-router"
	}
	return o
}

// tableInfo is what the router has learned about one table from the DDL
// it replicated.
type tableInfo struct {
	cols        []string // lowercased; nil when only partitioned-ness is known
	partitioned bool     // carries the user column
}

// denyError is a statement the router refused to route; it surfaces as
// a wire "query" error, since the statement itself is at fault.
type denyError struct{ reason string }

func (e *denyError) Error() string { return e.reason }

// Router is the sharded serving tier's front door: it speaks the wire
// protocol to clients through the same front end recdb-server uses
// (internal/frontend), and as that front end's backend fans statements
// out to the shards over pooled, pipelined client connections.
type Router struct {
	*frontend.Frontend
	opts Options
	ring *Ring
	reg  *metrics.Registry
	m    routerMetrics

	states []*shardState

	mu     sync.Mutex
	schema map[string]tableInfo
	rrAny  int // round-robin cursor for RouteAny

	stopProbe chan struct{}
	probeWG   sync.WaitGroup
}

// New builds a Router over the given shards and starts its health
// prober. Call Shutdown to release it.
func New(opts Options) (*Router, error) {
	opts = opts.withDefaults()
	ring, err := NewRing(len(opts.Shards))
	if err != nil {
		return nil, err
	}
	reg := metrics.NewRegistry()
	r := &Router{
		opts:      opts,
		ring:      ring,
		reg:       reg,
		m:         newRouterMetrics(reg),
		schema:    make(map[string]tableInfo),
		stopProbe: make(chan struct{}),
	}
	r.Frontend = frontend.New(r, reg, "shard", "router", opts.Options)
	for i, addr := range opts.Shards {
		r.states = append(r.states, newShardState(i, addr, opts.PoolSize, newShardMetrics(reg, i)))
	}
	for _, t := range opts.UserTables {
		r.schema[strings.ToLower(t)] = tableInfo{partitioned: true}
	}
	r.probeWG.Add(1)
	go r.probeLoop()
	return r, nil
}

// probeLoop pings every shard each HealthInterval until Shutdown.
func (r *Router) probeLoop() {
	defer r.probeWG.Done()
	t := time.NewTicker(r.opts.HealthInterval)
	defer t.Stop()
	for {
		select {
		case <-r.stopProbe:
			return
		case <-t.C:
		}
		for _, s := range r.states {
			s.probe(context.Background(), r.opts.HealthInterval)
		}
	}
}

// Metrics snapshots the router's registry.
func (r *Router) Metrics() metrics.Snapshot { return r.reg.Snapshot() }

// Shards returns the backend addresses in ring order.
func (r *Router) Shards() []string { return append([]string(nil), r.opts.Shards...) }

// Healthy reports each shard's current health flag, in ring order.
func (r *Router) Healthy() []bool {
	out := make([]bool, len(r.states))
	for i, s := range r.states {
		out[i] = s.healthy()
	}
	return out
}

// Shutdown drains the front end (see frontend.Frontend.Shutdown), then
// stops the health prober and closes every shard pool.
func (r *Router) Shutdown(ctx context.Context) error {
	drainErr := r.Frontend.Shutdown(ctx)
	if errors.Is(drainErr, frontend.ErrAlreadyShutDown) {
		return drainErr
	}
	close(r.stopProbe)
	r.probeWG.Wait()
	for _, s := range r.states {
		s.close()
	}
	return drainErr
}

// ServeMetrics starts the HTTP exporter for the router's registry on
// addr and returns the bound address and a stop function.
func (r *Router) ServeMetrics(addr string) (string, func() error, error) {
	return frontend.ServeMetrics(r.Metrics, addr)
}

// Open implements frontend.Backend. A client session holds no router
// state — transactions are denied, every statement routes on its own —
// so every connection shares the Router itself.
func (r *Router) Open() frontend.Session { return routed{r} }

// routed is the Router as a frontend.Session.
type routed struct{ r *Router }

// Query routes a single row-returning statement.
func (c routed) Query(ctx context.Context, text string) (frontend.Rows, error) {
	script, err := sql.ParseScript(text)
	if err != nil {
		return nil, err
	}
	if len(script) != 1 {
		return nil, fmt.Errorf("query must be a single statement, got %d", len(script))
	}
	res, err := c.r.execute(ctx, wire.TypeQuery, script[0].Text, script[0].Stmt)
	if err != nil {
		return nil, wireError(err)
	}
	if res.relay != nil {
		return res.relay, nil
	}
	return client.NewRows(res.cols, res.strategy, res.rows), nil
}

// Exec routes each statement of a script in turn, summing the counts.
func (c routed) Exec(ctx context.Context, text string) (int64, error) {
	script, err := sql.ParseScript(text)
	if err != nil {
		return 0, err
	}
	var affected int64
	for _, st := range script {
		res, err := c.r.execute(ctx, wire.TypeExec, st.Text, st.Stmt)
		if err != nil {
			return 0, wireError(err)
		}
		affected += res.affected
	}
	return affected, nil
}

func (routed) Close() error { return nil }

// wireError gives a routing failure its wire code. A shard that stayed
// unreachable answers "shard_down"; an error the shard itself produced
// keeps the shard's own code and message, so busy/timeout/query verdicts
// pass through the router unchanged. Everything else (a deny, a context
// error) takes the front end's default mapping.
func wireError(err error) error {
	var sde *ShardDownError
	var se *client.ServerError
	switch {
	case errors.As(err, &sde):
		return &frontend.Error{Code: wire.CodeShardDown, Message: err.Error()}
	case errors.As(err, &se):
		return &frontend.Error{Code: se.Code, Message: se.Message}
	}
	return err
}

// routerCatalog adapts the router's learned schema to route
// classification. Methods take r.mu.
type routerCatalog struct{ r *Router }

func (c routerCatalog) columns(table string) ([]string, bool) {
	c.r.mu.Lock()
	defer c.r.mu.Unlock()
	info, ok := c.r.schema[strings.ToLower(table)]
	if !ok || info.cols == nil {
		return nil, false
	}
	return info.cols, true
}

func (c routerCatalog) partitioned(table string) (bool, bool) {
	c.r.mu.Lock()
	defer c.r.mu.Unlock()
	info, ok := c.r.schema[strings.ToLower(table)]
	if !ok {
		return false, false
	}
	return info.partitioned, true
}

// learnTable records a CREATE TABLE the router replicated, so later
// positional INSERTs into it can locate the user column.
func (r *Router) learnTable(ct *sql.CreateTable) {
	cols := make([]string, len(ct.Cols))
	part := false
	for i, c := range ct.Cols {
		cols[i] = strings.ToLower(c.Name)
		if strings.EqualFold(c.Name, r.opts.UserCol) {
			part = true
		}
	}
	r.mu.Lock()
	r.schema[strings.ToLower(ct.Name)] = tableInfo{cols: cols, partitioned: part}
	r.mu.Unlock()
}

// forgetTable drops a replicated DROP TABLE's schema entry.
func (r *Router) forgetTable(name string) {
	r.mu.Lock()
	delete(r.schema, strings.ToLower(name))
	r.mu.Unlock()
}

// anyShard picks a healthy shard round-robin for RouteAny reads; when
// every shard looks down it still picks one, letting the retry path —
// and its typed shard_down verdict — decide.
func (r *Router) anyShard() int {
	r.mu.Lock()
	start := r.rrAny
	r.rrAny++
	r.mu.Unlock()
	n := len(r.states)
	for i := 0; i < n; i++ {
		s := (start + i) % n
		if r.states[s].healthy() {
			return s
		}
	}
	return start % n
}

// allShards is the broadcast/scatter target list: every ring index.
func (r *Router) allShards() []int {
	out := make([]int, len(r.states))
	for i := range out {
		out[i] = i
	}
	return out
}

// execute runs one classified statement and returns its combined
// answer. kind distinguishes Query (rows) from Exec (count) requests.
func (r *Router) execute(ctx context.Context, kind wire.Type, text string, stmt sql.Statement) (result, error) {
	rt := classify(stmt, strings.ToLower(r.opts.UserCol), routerCatalog{r})
	switch rt.Action {
	case RouteDeny:
		r.m.denied.Inc()
		return result{}, &denyError{reason: rt.Reason}

	case RouteOwner:
		owner := r.ring.Owner(rt.User)
		r.m.routedUser.Inc()
		r.states[owner].m.routed.Inc()
		return r.one(ctx, owner, kind, text)

	case RouteAny:
		s := r.anyShard()
		r.states[s].m.routed.Inc()
		return r.one(ctx, s, kind, text)

	case RouteOwners:
		targets := r.ring.Owners(rt.Users)
		if kind == wire.TypeQuery {
			r.m.scatters.Inc()
			return r.fanQuery(ctx, targets, text, rt.Merge)
		}
		r.m.fanouts.Inc()
		return r.fanExec(ctx, targets, text, rt.Sum)

	case RouteScatter:
		r.m.scatters.Inc()
		res, err := r.fanQuery(ctx, r.allShards(), text, rt.Merge)
		if err == nil && kind != wire.TypeQuery {
			// An Exec'd SELECT: run it like a query but report the count.
			res = result{affected: int64(len(res.rows))}
		}
		return res, err

	case RouteBroadcast:
		r.m.fanouts.Inc()
		res, err := r.fanExec(ctx, r.allShards(), text, rt.Sum)
		if err != nil {
			return result{}, err
		}
		// Schema changes the whole fleet accepted teach the catalog.
		switch s := stmt.(type) {
		case *sql.CreateTable:
			r.learnTable(s)
		case *sql.DropTable:
			r.forgetTable(s.Name)
		}
		return res, nil

	case RouteSplit:
		r.m.splits.Inc()
		return r.splitInsert(ctx, rt.Insert)

	default:
		return result{}, &denyError{reason: fmt.Sprintf("unhandled route action %d", rt.Action)}
	}
}

// one runs a single-shard statement. A read's answer is the shard's
// whole answer, relayed with its tuples still encoded.
func (r *Router) one(ctx context.Context, shard int, kind wire.Type, text string) (result, error) {
	complete, rows, err := r.do(ctx, shard, kind, text)
	if err != nil {
		return result{}, err
	}
	if kind == wire.TypeQuery {
		return result{relay: rows}, nil
	}
	return result{affected: complete.Rows}, nil
}

// fan runs leg once per target, concurrently, counting each as a
// fan-out leg on its shard, and returns the error the statement answers
// with (see pickError). i indexes targets, for legs that fill a slice.
func (r *Router) fan(targets []int, leg func(i, shard int) error) error {
	errs := make([]error, len(targets))
	var wg sync.WaitGroup
	for i, shard := range targets {
		r.states[shard].m.fanout.Inc()
		wg.Add(1)
		go func(i, shard int) {
			defer wg.Done()
			errs[i] = leg(i, shard)
		}(i, shard)
	}
	wg.Wait()
	return pickError(errs)
}

// fanQuery scatters a read to targets and merges the parts (ordered
// when spec has keys). Any leg's failure fails the statement.
func (r *Router) fanQuery(ctx context.Context, targets []int, text string, spec *MergeSpec) (result, error) {
	parts := make([]*client.Rows, len(targets))
	err := r.fan(targets, func(i, shard int) (err error) {
		_, parts[i], err = r.do(ctx, shard, wire.TypeQuery, text)
		return err
	})
	if err != nil {
		return result{}, err
	}
	return mergeParts(parts, spec), nil
}

// fanExec broadcasts a write to targets. sum adds the shards' counts
// (disjoint partitions); otherwise the first shard's count stands for
// the fleet (replicated copies all report the same).
func (r *Router) fanExec(ctx context.Context, targets []int, text string, sum bool) (result, error) {
	counts := make([]int64, len(targets))
	err := r.fan(targets, func(i, shard int) error {
		complete, _, err := r.do(ctx, shard, wire.TypeExec, text)
		counts[i] = complete.Rows
		return err
	})
	if err != nil {
		return result{}, err
	}
	if sum {
		return result{affected: total(counts)}, nil
	}
	return result{affected: counts[0]}, nil
}

// splitInsert partitions a multi-user INSERT's rows among their owning
// shards and runs the sub-INSERTs concurrently, summing the counts.
func (r *Router) splitInsert(ctx context.Context, plan *InsertPlan) (result, error) {
	groups := make(map[int][]int)
	for i, u := range plan.RowUsers {
		owner := r.ring.Owner(u)
		groups[owner] = append(groups[owner], i)
	}
	targets := make([]int, 0, len(groups))
	for s := range groups {
		targets = append(targets, s)
	}
	sort.Ints(targets)

	counts := make([]int64, len(targets))
	err := r.fan(targets, func(i, shard int) error {
		complete, _, err := r.do(ctx, shard, wire.TypeExec, renderInsert(plan.Stmt, groups[shard]))
		counts[i] = complete.Rows
		return err
	})
	if err != nil {
		return result{}, err
	}
	return result{affected: total(counts)}, nil
}

func total(counts []int64) (n int64) {
	for _, c := range counts {
		n += c
	}
	return n
}

// pickError selects the error a fan-out answers with: a server-answered
// error first (the statement itself is at fault everywhere it ran, and
// the client sees the most specific verdict), then the first failure in
// target order.
func pickError(errs []error) error {
	var first error
	for _, err := range errs {
		if err == nil {
			continue
		}
		var se *client.ServerError
		if errors.As(err, &se) {
			return err
		}
		if first == nil {
			first = err
		}
	}
	return first
}
