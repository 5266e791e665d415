// Package reccache implements §IV-D: the statistics (users/items
// histograms, demand and consumption rates) and the caching algorithm
// (Algorithm 4) that decide which users' 〈user, item, ratingval〉 triplets
// to materialize in the RecScoreIndex, each hot user's RecTree whole.
// HOTNESS-THRESHOLD trades query latency against storage/maintenance cost:
// 0 materializes every user with demand, above 1 nothing.
package reccache

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"recdb/internal/ann"
	"recdb/internal/metrics"
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
	// Admitted and Evicted count users whose RecTrees maintenance
	// decisions filled and dropped.
	Admitted *metrics.Counter
	Evicted  *metrics.Counter
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
	qcMax int64   // largest QCu in the Users Histogram
	ucMax int64   // largest UCi in the Items Histogram
	dMax  float64 // DMAX as of the last run: qcMax / (now − TSinit)
	pMax  float64 // PMAX as of the last run: ucMax / (now − TSinit)

	// Threshold is HOTNESS-THRESHOLD ∈ [0, 1].
	Threshold float64

	model func() Predictor // the recommender's current model
	ins   Metrics
	index *recindex.Index

	stopCh chan struct{}
	doneCh chan struct{}
}

// Predictor supplies predictions and seen-ness for admission; it is the
// recommender's model store. PredictForUser loads the user's side of the
// model once for the whole batch and must be safe to call concurrently for
// different users.
type Predictor interface {
	PredictForUser(user int64, items []int64) ([]float64, []bool)
	Seen(user, item int64) (rating float64, found bool)
	ItemIDs() []int64
	UserIDs() []int64
}

// New creates a manager over an empty RecScoreIndex. model returns the
// recommender's current model; every run and materialization reads it
// once. clock may be nil, in which case wall-clock seconds since creation
// are used. ins receives instrumentation; the zero Metrics records
// nothing.
func New(model func() Predictor, threshold float64, clock Clock, ins Metrics) *Manager {
	if clock == nil {
		start := time.Now()
		clock = func() float64 { return time.Since(start).Seconds() }
	}
	m := &Manager{
		clock:     clock,
		users:     make(map[int64]*UserStat),
		items:     make(map[int64]*ItemStat),
		Threshold: threshold,
		model:     model,
		ins:       ins,
		index:     recindex.New(),
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
	m.qcMax = max(m.qcMax, s.QueryCount)
	m.ins.Queries.Inc()
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
	m.ucMax = max(m.ucMax, s.UpdateCount)
	m.ins.Updates.Inc()
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
	is, ok := m.items[i]
	if !ok {
		return 0
	}
	return m.hotnessLocked(u, is.ConsumptionRate)
}

// hotnessLocked is the hotness ratio of user u paired with an item whose
// consumption rate is p.
func (m *Manager) hotnessLocked(u int64, p float64) float64 {
	us, ok := m.users[u]
	if !ok || m.dMax == 0 || m.pMax == 0 {
		return 0
	}
	return (us.DemandRate / m.dMax) * (p / m.pMax)
}

// Decision is the outcome of one maintenance run.
type Decision struct {
	Admitted int // users whose RecTrees were filled
	Evicted  int // users whose RecTrees were dropped
}

// Run executes Algorithm 4. Step 1 refreshes the demand/consumption rates
// for the users U′ and items I′ touched since the last run, and DMAX and
// PMAX as of this run: every rate is a count over the same now − TSinit,
// so they are the largest QCu and UCi over that span, and a burst early
// in the cache's life does not outweigh later demand. Step 2 lifts
// the paper's pair test to the user: u ∈ U′ is hot when one of its pairs
// (u, i), i ∈ I′, reaches HOTNESS-THRESHOLD, which is when
// (Du/DMAX) × (max Pi/PMAX) does, so a pass costs |U′| + |I′|. A hot user
// without a RecTree is filled whole with the recommender's current model,
// read once per run; a hot user's tree stays valid until a rebuild clears
// the index. A user of U′ who is not hot loses its tree. With I′ empty
// there is no pair and so no decision.
func (m *Manager) Run() Decision {
	m.ins.Runs.Inc()
	gen := m.index.Generation()
	pred := m.model()
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
	}
	for _, u := range usersDue {
		s := m.users[u]
		s.DemandRate = float64(s.QueryCount) / elapsed
	}
	m.pMax = float64(m.ucMax) / elapsed
	m.dMax = float64(m.qcMax) / elapsed

	// STEP 2: materialization decision, per user of U′.
	var hot, cold []int64
	if len(itemsDue) > 0 {
		pHot := 0.0 // max Pi over I′
		for _, i := range itemsDue {
			pHot = max(pHot, m.items[i].ConsumptionRate)
		}
		for _, u := range usersDue {
			if m.hotnessLocked(u, pHot) >= m.Threshold {
				hot = append(hot, u)
			} else {
				cold = append(cold, u)
			}
		}
	}
	m.tsMat = now
	m.mu.Unlock()

	// Apply outside the stats lock.
	var dec Decision
	for _, u := range cold {
		if m.index.Complete(u) {
			m.index.RemoveUser(u)
			dec.Evicted++
		}
	}
	var todo []int64
	for _, u := range hot {
		if !m.index.Complete(u) {
			todo = append(todo, u)
		}
	}
	dec.Admitted, _ = m.fill(gen, pred, todo, runtime.GOMAXPROCS(0)) // a rebuild mid-run: the next run decides again
	m.ins.Admitted.Add(int64(dec.Admitted))
	m.ins.Evicted.Add(int64(dec.Evicted))
	return dec
}

// unseenEntries computes the predictions to materialize for user u: every
// item of items u has not rated. Unpredictable pairs score 0, as Algorithm
// 1 emits.
func unseenEntries(pred Predictor, u int64, items []int64) []recindex.Entry {
	todo := make([]int64, 0, len(items))
	for _, i := range items {
		if _, rated := pred.Seen(u, i); !rated {
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

// fill fills the complete RecTree of each of users, in order, with pred's
// scores for every item the user has not rated, and returns how many it
// filled. gen is the index generation read before pred: once a rebuild has
// cleared the index since, a tree is refused with a *ModelReplacedError
// and no user after it is filled. Users are processed in batches: a pool
// of workers computes each batch's predictions concurrently, then the
// trees are written in order, so the index contents are the same at any
// worker count.
func (m *Manager) fill(gen uint64, pred Predictor, users []int64, workers int) (int, error) {
	items := pred.ItemIDs()
	workers = min(workers, len(users))
	// Batching bounds buffered predictions to ~4 users' worth per worker.
	batch := workers * 4
	for lo := 0; lo < len(users); lo += batch {
		span := users[lo:min(lo+batch, len(users))]
		trees := make([][]recindex.Entry, len(span))
		ann.RunWorkers(workers, func(w int) {
			for x := w; x < len(span); x += workers {
				trees[x] = unseenEntries(pred, span[x], items)
			}
		})
		for x, u := range span {
			if !m.index.Fill(gen, u, trees[x]) {
				return lo + x, &ModelReplacedError{User: u}
			}
		}
	}
	return len(users), nil
}

// MaterializeUser pre-computes and stores predictions for every item the
// user has not rated (full per-user materialization, the warm state of the
// top-k experiments in §VI-C) with the recommender's current model. As in
// Run, the index generation is read before the model, and a tree scored by
// a model a rebuild has since replaced is refused with a
// *ModelReplacedError.
func (m *Manager) MaterializeUser(u int64) error {
	gen := m.index.Generation()
	_, err := m.fill(gen, m.model(), []int64{u}, 1)
	return err
}

// MaterializeAll pre-computes predictions for every user (HOTNESS-THRESHOLD
// = 0 behaviour) with the recommender's current model, guarded by the
// index generation as MaterializeUser is. The pool is sized from
// GOMAXPROCS, as Run's is.
func (m *Manager) MaterializeAll() error {
	return m.materializeAll(runtime.GOMAXPROCS(0))
}

// materializeAll is MaterializeAll with the worker count given.
func (m *Manager) materializeAll(workers int) error {
	gen := m.index.Generation()
	pred := m.model()
	_, err := m.fill(gen, pred, pred.UserIDs(), workers)
	return err
}

// Invalidate clears the RecScoreIndex (called when the model is rebuilt).
func (m *Manager) Invalidate() { m.index.Clear() }

// Start launches a background goroutine running maintenance every
// interval, mirroring the asynchronous cache manager of §IV-D; each tick
// scores with the recommender's model of that tick (see Run). Stop halts
// it.
func (m *Manager) Start(interval time.Duration) {
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
				m.Run()
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
