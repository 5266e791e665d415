package rec

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"recdb/internal/catalog"
	"recdb/internal/metrics"
	"recdb/internal/reccache"
	"recdb/internal/types"
)

// Metrics is the set of optional instruments the manager records into.
// Every field may be nil (the zero Metrics disables instrumentation);
// nil instruments are no-ops per the internal/metrics contract.
type Metrics struct {
	// Builds counts successful model (re)builds, including the initial
	// CREATE RECOMMENDER build.
	Builds *metrics.Counter
	// BuildFailures counts failed rebuilds (the previous model kept
	// serving).
	BuildFailures *metrics.Counter
	// BuildNanos records model build wall time.
	BuildNanos *metrics.Histogram
	// HealthTransitions counts healthy->degraded and degraded->healthy
	// flips across all recommenders.
	HealthTransitions *metrics.Counter
	// Cache is shared by every recommender's §IV-D cache.
	Cache reccache.Metrics
}

// Options configures the manager.
type Options struct {
	// Build tunes model construction for every recommender.
	Build BuildOptions
	// RebuildThresholdPct is N from §III-A: the model is rebuilt when the
	// number of new ratings reaches N% of the ratings used for the current
	// model. Default 10.
	RebuildThresholdPct float64
	// HotnessThreshold is every recommender's cache HOTNESS-THRESHOLD
	// (§IV-D), taken as given: 0 admits every user with demand. recdb.Open
	// and OpenDir start from DefaultHotnessThreshold.
	HotnessThreshold float64
	// CacheClock overrides the caches' clock (tests).
	CacheClock reccache.Clock
	// Metrics receives build/maintenance instrumentation; the zero value
	// records nothing.
	Metrics Metrics
}

// DefaultHotnessThreshold is the HOTNESS-THRESHOLD a database opened
// without WithHotnessThreshold uses.
const DefaultHotnessThreshold = 0.5

func (o Options) withDefaults() Options {
	if o.RebuildThresholdPct <= 0 {
		o.RebuildThresholdPct = 10
	}
	return o
}

// Recommender is one created recommender: its definition, its model
// store, its §IV-D cache, and its maintenance state.
type Recommender struct {
	Name      string
	Table     string
	UserCol   string
	ItemCol   string
	RatingCol string
	Algo      Algorithm

	cache *reccache.Manager // its RecScoreIndex and hotness statistics

	mu         sync.RWMutex
	store      *ModelStore
	buildCount int           // ratings used for the current model
	pending    int           // new ratings since the current model was built
	buildTime  time.Duration // duration of the last model build (Table II)
	rebuilds   int

	// Degradation state: a failed rebuild leaves the previous model
	// serving and is retried with exponential backoff.
	failures  int       // consecutive failed rebuilds
	lastErr   error     // most recent rebuild failure (nil when healthy)
	lastErrAt time.Time // when lastErr happened
	nextRetry time.Time // earliest time maintenance may retry
}

// Health is a point-in-time snapshot of a recommender's maintenance
// state. A degraded recommender keeps answering queries from the last
// good model; Healthy reports whether the most recent (re)build
// succeeded.
type Health struct {
	Name     string
	Healthy  bool
	Rebuilds int
	Pending  int
	// Failures counts consecutive failed rebuilds (0 when healthy).
	Failures int
	// LastError is the most recent rebuild failure, nil when healthy.
	LastError error
	// LastErrorAt and NextRetry frame the backoff window: maintenance
	// will not retry the rebuild before NextRetry.
	LastErrorAt time.Time
	NextRetry   time.Time
}

// Health reports the recommender's current maintenance health.
func (r *Recommender) Health() Health {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return Health{
		Name:        r.Name,
		Healthy:     r.lastErr == nil,
		Rebuilds:    r.rebuilds,
		Pending:     r.pending,
		Failures:    r.failures,
		LastError:   r.lastErr,
		LastErrorAt: r.lastErrAt,
		NextRetry:   r.nextRetry,
	}
}

// Store returns the current model. The returned store remains
// readable even if a rebuild swaps in a replacement concurrently.
func (r *Recommender) Store() *ModelStore {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.store
}

// Cache returns the recommender's §IV-D cache: its RecScoreIndex and the
// histograms Algorithm 4 reads. A rebuild clears the index; DROP
// RECOMMENDER stops its daemon.
func (r *Recommender) Cache() *reccache.Manager { return r.cache }

// BuildTime returns the duration of the most recent model build.
func (r *Recommender) BuildTime() time.Duration {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.buildTime
}

// Pending returns the count of ratings inserted since the last build.
func (r *Recommender) Pending() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.pending
}

// Rebuilds returns how many times maintenance has rebuilt the model.
func (r *Recommender) Rebuilds() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.rebuilds
}

// Manager owns every recommender created with CREATE RECOMMENDER: it
// builds models, serves their relations by name, resolves RECOMMEND
// clauses to recommenders, and applies the N% maintenance policy on
// ratings-table inserts.
type Manager struct {
	cat  *catalog.Catalog
	opts Options

	mu   sync.RWMutex
	recs map[string]*Recommender // keyed by lower-case name

	// now is the clock used for the rebuild-failure backoff (tests swap it).
	now func() time.Time
	// buildFault, when set, fails every model build (fault-injection tests).
	buildFault func() error
}

// Rebuild-failure backoff: 500ms doubling to a 60s ceiling.
const (
	backoffBase = 500 * time.Millisecond
	backoffMax  = 60 * time.Second
)

// backoffAfter returns the retry delay after the Nth consecutive failure.
func backoffAfter(failures int) time.Duration {
	d := backoffBase
	for i := 1; i < failures && d < backoffMax; i++ {
		d *= 2
	}
	if d > backoffMax {
		d = backoffMax
	}
	return d
}

// NewManager creates a manager over the catalog.
func NewManager(cat *catalog.Catalog, opts Options) *Manager {
	return &Manager{
		cat:  cat,
		opts: opts.withDefaults(),
		recs: make(map[string]*Recommender),
		now:  time.Now,
	}
}

// Create implements CREATE RECOMMENDER: it loads the ratings table and
// builds the model for the algorithm (Recommender Initialization, §III-A),
// with an empty cache beside it.
func (m *Manager) Create(name, table, userCol, itemCol, ratingCol, algoName string) (*Recommender, error) {
	algo, err := ParseAlgorithm(algoName)
	if err != nil {
		return nil, err
	}
	key := strings.ToLower(name)
	m.mu.Lock()
	if _, exists := m.recs[key]; exists {
		m.mu.Unlock()
		return nil, fmt.Errorf("rec: recommender %q already exists", name)
	}
	m.mu.Unlock()

	ratings, err := m.loadRatings(table, userCol, itemCol, ratingCol)
	if err != nil {
		return nil, err
	}
	r := &Recommender{
		Name: name, Table: table,
		UserCol: userCol, ItemCol: itemCol, RatingCol: ratingCol,
		Algo: algo,
	}
	r.cache = reccache.New(func() reccache.Predictor { return r.Store() },
		m.opts.HotnessThreshold, m.opts.CacheClock, m.opts.Metrics.Cache)
	if err := m.buildAndSwap(r, ratings); err != nil {
		return nil, err
	}

	m.mu.Lock()
	defer m.mu.Unlock()
	if _, exists := m.recs[key]; exists {
		return nil, fmt.Errorf("rec: recommender %q already exists", name)
	}
	m.recs[key] = r
	return r, nil
}

func (m *Manager) buildAndSwap(r *Recommender, ratings []Rating) error {
	start := time.Now()
	store, err := Build(ratings, r.Algo, m.opts.Build)
	if err != nil {
		return err
	}
	elapsed := time.Since(start)
	m.opts.Metrics.Builds.Inc()
	m.opts.Metrics.BuildNanos.Observe(int64(elapsed))
	r.mu.Lock()
	r.store = store
	r.buildCount = store.ratings.n
	r.pending = 0
	r.buildTime = elapsed
	r.mu.Unlock()
	// Scores of the replaced model must not outlive the swap: clearing the
	// index advances its generation, so a materialization still scoring
	// with the old model is refused (reccache.ModelReplacedError).
	r.cache.Invalidate()
	return nil
}

// loadRatings scans the source table, projecting the three named columns.
func (m *Manager) loadRatings(table, userCol, itemCol, ratingCol string) ([]Rating, error) {
	t, err := m.cat.Get(table)
	if err != nil {
		return nil, err
	}
	uIdx, err := t.Schema.Resolve("", userCol)
	if err != nil {
		return nil, fmt.Errorf("rec: users column: %w", err)
	}
	iIdx, err := t.Schema.Resolve("", itemCol)
	if err != nil {
		return nil, fmt.Errorf("rec: items column: %w", err)
	}
	rIdx, err := t.Schema.Resolve("", ratingCol)
	if err != nil {
		return nil, fmt.Errorf("rec: ratings column: %w", err)
	}
	var out []Rating
	it := t.Heap.Scan()
	defer it.Close()
	for {
		row, _, ok, err := it.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			return out, nil
		}
		u, uok := row[uIdx].AsInt()
		i, iok := row[iIdx].AsInt()
		v, vok := row[rIdx].AsFloat()
		if !uok || !iok || !vok {
			continue // skip rows with NULL or non-numeric keys
		}
		out = append(out, Rating{User: u, Item: i, Value: v})
	}
}

// Drop implements DROP RECOMMENDER; it stops the recommender's cache
// daemon, if running.
func (m *Manager) Drop(name string) error {
	key := strings.ToLower(name)
	m.mu.Lock()
	r, exists := m.recs[key]
	delete(m.recs, key)
	m.mu.Unlock()
	if !exists {
		return fmt.Errorf("rec: recommender %q does not exist", name)
	}
	r.cache.Stop()
	return nil
}

// ModelTableError refuses a statement that would write or drop one of a
// recommender's relations. They are read-only views of its model, which
// only a build makes; DROP RECOMMENDER removes them with the recommender.
type ModelTableError struct {
	Statement   string // INSERT, UPDATE, DELETE or DROP TABLE
	Table       string
	Recommender string
}

func (e *ModelTableError) Error() string {
	return fmt.Sprintf("rec: %s on %q refused: the table is recommender %q's model, which only its build writes; DROP RECOMMENDER %s removes it",
		e.Statement, e.Table, e.Recommender, e.Recommender)
}

// CheckWritable returns a *ModelTableError when table belongs to a
// recommender, and nil otherwise; statement names what would write it.
func (m *Manager) CheckWritable(statement, table string) error {
	if r, _, ok := m.owner(table); ok {
		return &ModelTableError{Statement: statement, Table: table, Recommender: r.Name}
	}
	return nil
}

// owner returns the recommender a relation name belongs to —
// _rec_<recommender>_<table>, in any case — and the table's suffix.
func (m *Manager) owner(name string) (*Recommender, string, bool) {
	lower := strings.ToLower(name)
	if !strings.HasPrefix(lower, "_rec_") {
		return nil, "", false
	}
	m.mu.RLock()
	defer m.mu.RUnlock()
	for _, r := range m.recs {
		if suffix, ok := strings.CutPrefix(lower, prefixFor(r.Name)); ok && slices.Contains(modelTables, suffix) {
			return r, suffix, true
		}
	}
	return nil, "", false
}

// Relation returns the relation called name over its recommender's current
// model, or false when no recommender's model has one by that name.
func (m *Manager) Relation(name string) (*Relation, bool) {
	r, suffix, ok := m.owner(name)
	if !ok {
		return nil, false
	}
	rel := r.relation(r.Store(), suffix)
	return rel, rel != nil
}

// Relations returns every relation of every recommender's current model.
func (m *Manager) Relations() []*Relation {
	var out []*Relation
	for _, r := range m.List() {
		s := r.Store()
		for _, suffix := range modelTables {
			if rel := r.relation(s, suffix); rel != nil {
				out = append(out, rel)
			}
		}
	}
	return out
}

// relation returns r's relation with the given suffix over store s, named,
// or nil when the model has no such table.
func (r *Recommender) relation(s *ModelStore, suffix string) *Relation {
	rel := s.relation(suffix)
	if rel != nil {
		rel.Name = prefixFor(r.Name) + suffix
	}
	return rel
}

// Get returns the recommender with the given name.
func (m *Manager) Get(name string) (*Recommender, bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	r, ok := m.recs[strings.ToLower(name)]
	return r, ok
}

// List returns all recommenders, unordered.
func (m *Manager) List() []*Recommender {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make([]*Recommender, 0, len(m.recs))
	for _, r := range m.recs {
		out = append(out, r)
	}
	return out
}

// ForQuery resolves a RECOMMEND clause to a created recommender: the
// clause names the ratings table in FROM and the algorithm in USING, and
// the engine "figures that a recommender is already created" (§IV-A1). An
// empty algorithm selects the default.
func (m *Manager) ForQuery(table, algoName string) (*Recommender, error) {
	algo, err := ParseAlgorithm(algoName)
	if err != nil {
		return nil, err
	}
	m.mu.RLock()
	defer m.mu.RUnlock()
	for _, r := range m.recs {
		if strings.EqualFold(r.Table, table) && r.Algo == algo {
			return r, nil
		}
	}
	return nil, fmt.Errorf("rec: no %v recommender exists on table %q; run CREATE RECOMMENDER first", algo, table)
}

// NotifyInsert implements the maintenance policy of §III-A: each new
// rating inserted into a recommender's source table counts toward its
// pending updates; when pending reaches N%% of the ratings used to build
// the current model, the model is rebuilt from the table.
func (m *Manager) NotifyInsert(table string, count int) error {
	m.mu.RLock()
	var due []*Recommender
	for _, r := range m.recs {
		if !strings.EqualFold(r.Table, table) {
			continue
		}
		now := m.now()
		r.mu.Lock()
		r.pending += count
		threshold := int(m.opts.RebuildThresholdPct / 100 * float64(r.buildCount))
		if threshold < 1 {
			threshold = 1
		}
		// A recommender in its backoff window stays pending: the insert
		// proceeds, the previous model keeps serving, and a later insert
		// (or explicit Rebuild) retries once the window passes.
		if r.pending >= threshold && !now.Before(r.nextRetry) {
			due = append(due, r)
		}
		r.mu.Unlock()
	}
	m.mu.RUnlock()

	// Recommenders that share a source table fall due on the same insert;
	// the table is scanned once and each build is handed the same ratings.
	loaded := make(map[ratingSource][]Rating)
	for _, r := range due {
		// Graceful degradation on error: the failure is recorded in the
		// recommender's Health and retried with backoff; the insert that
		// triggered maintenance must not fail.
		_ = m.rebuildFrom(r, loaded)
	}
	return nil
}

// ratingSource names the three columns a recommender reads its ratings from.
type ratingSource struct{ table, user, item, rating string }

// Rebuild reloads the source table and rebuilds the recommender's model.
// On failure the previous model keeps serving: the error is recorded in
// the recommender's Health and maintenance backs off exponentially
// (500ms doubling, 60s cap) before retrying.
func (m *Manager) Rebuild(name string) error {
	r, ok := m.Get(name)
	if !ok {
		return fmt.Errorf("rec: recommender %q does not exist", name)
	}
	return m.rebuildFrom(r, make(map[ratingSource][]Rating))
}

// rebuildFrom is Rebuild with the source scans of one maintenance pass
// shared: ratings already in loaded are reused, a scan it makes is added.
func (m *Manager) rebuildFrom(r *Recommender, loaded map[ratingSource][]Rating) error {
	err := m.rebuild(r, loaded)
	now := m.now()
	r.mu.Lock()
	wasHealthy := r.lastErr == nil
	if err != nil {
		r.failures++
		r.lastErr = err
		r.lastErrAt = now
		r.nextRetry = now.Add(backoffAfter(r.failures))
	} else {
		r.rebuilds++
		r.failures = 0
		r.lastErr = nil
		r.lastErrAt = time.Time{}
		r.nextRetry = time.Time{}
	}
	nowHealthy := r.lastErr == nil
	r.mu.Unlock()
	if err != nil {
		m.opts.Metrics.BuildFailures.Inc()
	}
	if wasHealthy != nowHealthy {
		m.opts.Metrics.HealthTransitions.Inc()
	}
	return err
}

func (m *Manager) rebuild(r *Recommender, loaded map[ratingSource][]Rating) error {
	if m.buildFault != nil {
		if err := m.buildFault(); err != nil {
			return err
		}
	}
	src := ratingSource{strings.ToLower(r.Table), strings.ToLower(r.UserCol), strings.ToLower(r.ItemCol), strings.ToLower(r.RatingCol)}
	ratings, ok := loaded[src]
	if !ok {
		var err error
		if ratings, err = m.loadRatings(r.Table, r.UserCol, r.ItemCol, r.RatingCol); err != nil {
			return err
		}
		loaded[src] = ratings
	}
	return m.buildAndSwap(r, ratings)
}

// HealthAll reports the health of every recommender, sorted by name.
func (m *Manager) HealthAll() []Health {
	recs := m.List()
	out := make([]Health, 0, len(recs))
	for _, r := range recs {
		out = append(out, r.Health())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Evaluate measures r's held-out accuracy: every k-th rating of its source
// table is held out (SplitRatings), r's algorithm is built on the rest with
// the options r's own model is built with, and the held-out ratings are
// scored against that model.
func (m *Manager) Evaluate(r *Recommender, k int) (Evaluation, error) {
	ratings, err := m.loadRatings(r.Table, r.UserCol, r.ItemCol, r.RatingCol)
	if err != nil {
		return Evaluation{}, err
	}
	train, test := SplitRatings(ratings, k)
	if len(test) == 0 {
		return Evaluation{}, fmt.Errorf("rec: not enough ratings to hold out 1/%d", k)
	}
	model, err := Build(train, r.Algo, m.opts.Build)
	if err != nil {
		return Evaluation{}, err
	}
	return Evaluate(model, test), nil
}

// ResolveRatingColumns maps a recommender's (user, item, rating) column
// names to positions in the source table's schema.
func (r *Recommender) ResolveRatingColumns(schema *types.Schema) (u, i, v int, err error) {
	if u, err = schema.Resolve("", r.UserCol); err != nil {
		return
	}
	if i, err = schema.Resolve("", r.ItemCol); err != nil {
		return
	}
	v, err = schema.Resolve("", r.RatingCol)
	return
}
