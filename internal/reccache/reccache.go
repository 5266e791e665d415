// Package reccache implements §IV-D: the statistics (users/items
// histograms, demand and consumption rates) and the caching algorithm
// (Algorithm 4) that decide which 〈user, item, ratingval〉 triplets to
// materialize in the RecScoreIndex. HOTNESS-THRESHOLD trades query latency
// against storage/maintenance cost: 0 fully materializes, 1 materializes
// nothing.
package reccache

import (
	"fmt"
	"sync"
	"time"

	"recdb/internal/ann"
	"recdb/internal/metrics"
	"recdb/internal/rec"
	"recdb/internal/recindex"
)

// Metrics is the set of optional instruments the cache manager records
// into. Every field may be nil (the zero Metrics disables
// instrumentation); nil instruments are no-ops per the internal/metrics
// contract.
type Metrics struct {
	// Queries counts Users-Histogram updates (recommendation queries).
	Queries *metrics.Counter
	// Updates counts Items-Histogram updates (rating insertions).
	Updates *metrics.Counter
	// Runs counts hotness-refresh maintenance runs (Algorithm 4).
	Runs *metrics.Counter
	// RunFailures counts daemon maintenance runs that failed.
	RunFailures *metrics.Counter
	// Admitted and Evicted count pairs moved in and out of the
	// RecScoreIndex by maintenance decisions.
	Admitted *metrics.Counter
	Evicted  *metrics.Counter
	// HealthTransitions counts the daemon flipping healthy <-> degraded.
	HealthTransitions *metrics.Counter
}

// Clock abstracts time so the paper's worked example (Table I) is testable
// with integer timestamps.
type Clock func() float64

// UserStat is one row of the Users Histogram.
type UserStat struct {
	QueryCount int64   // QCu: recommendation queries issued by u
	LastQuery  float64 // TSu: timestamp of u's last recommendation query
	DemandRate float64 // Du: QCu / (now − TSinit)
}

// ItemStat is one row of the Items Histogram.
type ItemStat struct {
	UpdateCount     int64   // UCi: rating insertions on item i
	LastUpdate      float64 // TSi: timestamp of i's last update
	ConsumptionRate float64 // Pi: UCi / (now − TSinit)
}

// Manager maintains the histograms for one recommender and runs the
// materialization decision over its RecScoreIndex.
type Manager struct {
	mu     sync.Mutex
	clock  Clock
	tsInit float64
	tsMat  float64 // timestamp of the last maintenance run

	users map[int64]*UserStat
	items map[int64]*ItemStat
	dMax  float64 // DMAX
	pMax  float64 // PMAX

	// Threshold is HOTNESS-THRESHOLD ∈ [0, 1].
	Threshold float64

	// Metrics receives cache instrumentation; the zero value records
	// nothing. Set it before Start — the daemon reads it without locking.
	Metrics Metrics

	// Workers bounds the pool used by MaterializeAll to compute
	// predictions concurrently. 0 selects runtime.NumCPU(); 1 keeps the
	// serial path. The RecScoreIndex contents are identical at any
	// setting: predictions are computed in parallel but applied in
	// ascending user order.
	Workers int

	index *recindex.Index

	stopCh chan struct{}
	doneCh chan struct{}

	// Daemon health: the background maintenance loop records run failures
	// here instead of dropping them; the cache keeps serving its current
	// contents while degraded.
	runs        int
	runFailures int   // consecutive failed runs (0 when healthy)
	lastRunErr  error // most recent failed run's error, nil when healthy
}

// Health describes the cache maintenance daemon's state: how many runs
// completed, whether the most recent one succeeded, and the error if not.
type Health struct {
	Runs      int
	Failures  int
	LastError error
	Healthy   bool
}

// Health reports the daemon's current state.
func (m *Manager) Health() Health {
	m.mu.Lock()
	defer m.mu.Unlock()
	return Health{
		Runs:      m.runs,
		Failures:  m.runFailures,
		LastError: m.lastRunErr,
		Healthy:   m.lastRunErr == nil,
	}
}

// recordRun folds one maintenance run's outcome into the health state.
func (m *Manager) recordRun(err error) {
	m.mu.Lock()
	wasHealthy := m.lastRunErr == nil
	m.runs++
	if err != nil {
		m.runFailures++
		m.lastRunErr = err
	} else {
		m.runFailures = 0
		m.lastRunErr = nil
	}
	nowHealthy := m.lastRunErr == nil
	m.mu.Unlock()
	if err != nil {
		m.Metrics.RunFailures.Inc()
	}
	if wasHealthy != nowHealthy {
		m.Metrics.HealthTransitions.Inc()
	}
}

// Predictor supplies predictions and seen-ness for admission; it is the
// recommender's model store. PredictForUser loads the user's side of the
// model once for the whole batch and must be safe to call concurrently for
// different users.
type Predictor interface {
	PredictForUser(user int64, items []int64) ([]float64, []bool)
	UserItems(user int64) []rec.Neighbor // the user's ratings, ascending in item
	ItemIDs() []int64
	UserIDs() []int64
}

// New creates a manager over the given RecScoreIndex. clock may be nil, in
// which case wall-clock seconds since creation are used.
func New(index *recindex.Index, threshold float64, clock Clock) *Manager {
	if clock == nil {
		start := time.Now()
		clock = func() float64 { return time.Since(start).Seconds() }
	}
	m := &Manager{
		clock:     clock,
		users:     make(map[int64]*UserStat),
		items:     make(map[int64]*ItemStat),
		Threshold: threshold,
		index:     index,
	}
	m.tsInit = clock()
	m.tsMat = m.tsInit
	return m
}

// Index returns the RecScoreIndex the manager maintains.
func (m *Manager) Index() *recindex.Index { return m.index }

// RecordQuery updates the Users Histogram for a recommendation query
// issued by user u.
func (m *Manager) RecordQuery(u int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := m.users[u]
	if s == nil {
		s = &UserStat{}
		m.users[u] = s
	}
	s.QueryCount++
	s.LastQuery = m.clock()
	m.Metrics.Queries.Inc()
}

// RecordUpdate updates the Items Histogram for a rating inserted on item i.
func (m *Manager) RecordUpdate(i int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := m.items[i]
	if s == nil {
		s = &ItemStat{}
		m.items[i] = s
	}
	s.UpdateCount++
	s.LastUpdate = m.clock()
	m.Metrics.Updates.Inc()
}

// UserStatOf returns a copy of the histogram row for user u.
func (m *Manager) UserStatOf(u int64) (UserStat, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	s, ok := m.users[u]
	if !ok {
		return UserStat{}, false
	}
	return *s, true
}

// ItemStatOf returns a copy of the histogram row for item i.
func (m *Manager) ItemStatOf(i int64) (ItemStat, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	s, ok := m.items[i]
	if !ok {
		return ItemStat{}, false
	}
	return *s, true
}

// Hotness returns Hot(u,i) = (Du/DMAX) × (Pi/PMAX) using the rates from
// the most recent Run.
func (m *Manager) Hotness(u, i int64) float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.hotnessLocked(u, i)
}

func (m *Manager) hotnessLocked(u, i int64) float64 {
	us, uok := m.users[u]
	is, iok := m.items[i]
	if !uok || !iok || m.dMax == 0 || m.pMax == 0 {
		return 0
	}
	return (us.DemandRate / m.dMax) * (is.ConsumptionRate / m.pMax)
}

// Decision is the outcome of one maintenance run.
type Decision struct {
	Admitted      int // pairs added to the RecScoreIndex
	Evicted       int // pairs removed from the RecScoreIndex
	AdmissionList []Pair
	EvictionList  []Pair
}

// Pair is one user/item pair considered by the materialization decision.
type Pair struct {
	User, Item int64
	Hotness    float64
}

// Run executes Algorithm 4: Step 1 refreshes the demand/consumption rates
// for users and items touched since the last run; Step 2 computes the
// hotness ratio for every candidate pair and splits them into admission
// and eviction lists; finally the lists are applied to the RecScoreIndex,
// computing predictions for admitted pairs with the predictor model
// returns — the recommender's current model, read once per run. A model
// rebuild clears the index (Invalidate) while a run may be predicting, so
// a user's admissions are stored only if the index has not been cleared
// since before model was read.
func (m *Manager) Run(model func() Predictor) (Decision, error) {
	m.Metrics.Runs.Inc()
	gen := m.index.Generation()
	pred := model()
	m.mu.Lock()
	now := m.clock()
	elapsed := now - m.tsInit
	if elapsed <= 0 {
		elapsed = 1e-9
	}

	// Candidate sets: touched since the last maintenance run.
	var usersDue []int64
	for u, s := range m.users {
		if s.LastQuery >= m.tsMat {
			usersDue = append(usersDue, u)
		}
	}
	var itemsDue []int64
	for i, s := range m.items {
		if s.LastUpdate >= m.tsMat {
			itemsDue = append(itemsDue, i)
		}
	}

	// STEP 1: statistics maintenance.
	for _, i := range itemsDue {
		s := m.items[i]
		s.ConsumptionRate = float64(s.UpdateCount) / elapsed
		if s.ConsumptionRate > m.pMax {
			m.pMax = s.ConsumptionRate
		}
	}
	for _, u := range usersDue {
		s := m.users[u]
		s.DemandRate = float64(s.QueryCount) / elapsed
		if s.DemandRate > m.dMax {
			m.dMax = s.DemandRate
		}
	}

	// STEP 2: materialization decision over U' × I'.
	var dec Decision
	defer func() {
		m.Metrics.Admitted.Add(int64(dec.Admitted))
		m.Metrics.Evicted.Add(int64(dec.Evicted))
	}()
	threshold := m.Threshold
	var admit, evict []Pair
	admitItems := make([][]int64, len(usersDue)) // admit's items, per due user
	for x, u := range usersDue {
		for _, i := range itemsDue {
			hot := m.hotnessLocked(u, i)
			p := Pair{User: u, Item: i, Hotness: hot}
			if hot >= threshold {
				admit = append(admit, p)
				admitItems[x] = append(admitItems[x], i)
			} else {
				evict = append(evict, p)
			}
		}
	}
	m.tsMat = now
	m.mu.Unlock()

	// Apply outside the stats lock: batch-delete the eviction list, then
	// batch-insert the admission list (skipping already-seen items).
	for _, p := range evict {
		if m.index.Remove(p.User, p.Item) {
			dec.Evicted++
		}
	}
	for x, u := range usersDue {
		if len(admitItems[x]) == 0 {
			continue
		}
		entries := unseenEntries(pred, u, admitItems[x])
		if m.index.PutAll(gen, u, entries) {
			dec.Admitted += len(entries)
		}
	}
	dec.AdmissionList = admit
	dec.EvictionList = evict
	return dec, nil
}

// unseenEntries computes the predictions to materialize for user u among
// items: those u has not rated. Unpredictable pairs score 0, as Algorithm 1
// emits.
func unseenEntries(pred Predictor, u int64, items []int64) []recindex.Entry {
	seen := pred.UserItems(u)
	todo := make([]int64, 0, len(items))
	for _, i := range items {
		if _, rated := rec.ValueOf(seen, i); !rated {
			todo = append(todo, i)
		}
	}
	scores, oks := pred.PredictForUser(u, todo)
	out := make([]recindex.Entry, len(todo))
	for x, i := range todo {
		if !oks[x] {
			scores[x] = 0
		}
		out[x] = recindex.Entry{Item: i, Score: scores[x]}
	}
	return out
}

// ModelReplacedError reports that a rebuild replaced the model while
// MaterializeUser or MaterializeAll scored with it: User's tree was not
// filled (nor any after it), and materializing again scores with the new
// model.
type ModelReplacedError struct{ User int64 }

func (e *ModelReplacedError) Error() string {
	return fmt.Sprintf("reccache: the model was rebuilt while user %d's scores were computed; materialize again", e.User)
}

// MaterializeUser pre-computes and stores predictions for every item the
// user has not rated (full per-user materialization, the warm state of the
// top-k experiments in §VI-C) with the predictor model returns: the user's
// tree is then complete. As in Run, the index generation is read before
// the model, and a tree scored by a model a rebuild has since replaced is
// refused with a *ModelReplacedError.
func (m *Manager) MaterializeUser(model func() Predictor, u int64) error {
	gen := m.index.Generation()
	pred := model()
	if !m.index.Fill(gen, u, unseenEntries(pred, u, pred.ItemIDs())) {
		return &ModelReplacedError{User: u}
	}
	return nil
}

// MaterializeAll pre-computes predictions for every user (HOTNESS-THRESHOLD
// = 0 behaviour) with the predictor model returns, guarded by the index
// generation as MaterializeUser is. Users are processed in batches: a
// bounded pool of m.Workers workers computes each batch's predictions
// concurrently, then the results are written to the RecScoreIndex in
// ascending user order, so the index contents match the serial path
// exactly.
func (m *Manager) MaterializeAll(model func() Predictor) error {
	gen := m.index.Generation()
	pred := model()
	users := pred.UserIDs()
	workers := min(ann.ResolveWorkers(m.Workers), len(users))
	// Batching bounds buffered predictions to ~4 users' worth per worker.
	batch := workers * 4
	for lo := 0; lo < len(users); lo += batch {
		span := users[lo:min(lo+batch, len(users))]
		results := make([][]recindex.Entry, len(span))
		ann.RunWorkers(workers, func(w int) {
			for x := w; x < len(span); x += workers {
				results[x] = unseenEntries(pred, span[x], pred.ItemIDs())
			}
		})
		for x, u := range span {
			if !m.index.Fill(gen, u, results[x]) {
				return &ModelReplacedError{User: u}
			}
		}
	}
	return nil
}

// Invalidate clears the RecScoreIndex (called when the model is rebuilt).
func (m *Manager) Invalidate() { m.index.Clear() }

// Start launches a background goroutine running maintenance every
// interval, mirroring the asynchronous cache manager of §IV-D; each tick
// scores with the predictor model returns then (see Run). Stop halts it.
func (m *Manager) Start(model func() Predictor, interval time.Duration) {
	m.mu.Lock()
	if m.stopCh != nil {
		m.mu.Unlock()
		return
	}
	m.stopCh = make(chan struct{})
	m.doneCh = make(chan struct{})
	stop, done := m.stopCh, m.doneCh
	m.mu.Unlock()
	go func() {
		defer close(done)
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for {
			select {
			case <-stop:
				return
			case <-ticker.C:
				// A failed run degrades (recorded in Health) rather than
				// killing the daemon: the cache serves stale entries and
				// the next tick retries.
				_, err := m.Run(model)
				m.recordRun(err)
			}
		}
	}()
}

// Stop halts the background maintenance goroutine, if running.
func (m *Manager) Stop() {
	m.mu.Lock()
	stop, done := m.stopCh, m.doneCh
	m.stopCh, m.doneCh = nil, nil
	m.mu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
}

// Predictor mirrors *rec.ModelStore.
var _ Predictor = (*rec.ModelStore)(nil)
