package reccache

import (
	"errors"
	"math"
	"sync/atomic"
	"testing"
	"time"
)

// fakePredictor is a deterministic Predictor for tests. batchCalls is
// atomic because MaterializeAll invokes PredictForUser from concurrent
// workers.
type fakePredictor struct {
	users, items []int64
	seen         map[int64]map[int64]float64 // user → item → rating
	batchCalls   atomic.Int64
}

func (f *fakePredictor) PredictForUser(u int64, items []int64) ([]float64, []bool) {
	f.batchCalls.Add(1)
	scores := make([]float64, len(items))
	oks := make([]bool, len(items))
	for x, i := range items {
		scores[x], oks[x] = float64(u*10+i), true
	}
	return scores, oks
}

func (f *fakePredictor) Seen(u, i int64) (float64, bool) {
	v, ok := f.seen[u][i]
	return v, ok
}

func (f *fakePredictor) ItemIDs() []int64 { return f.items }
func (f *fakePredictor) UserIDs() []int64 { return f.users }

// newFixed creates a manager over a model that is never rebuilt.
func newFixed(p Predictor, threshold float64, clock Clock) *Manager {
	return New(func() Predictor { return p }, threshold, clock, 0, Metrics{})
}

// swappable is a model source a test points at another predictor.
type swappable struct{ p Predictor }

func (s *swappable) model() Predictor { return s.p }

// rebuildingPredictor is a model rebuilt while it predicts: the rebuild
// invalidates the manager's index, as a recommender's rebuild does.
type rebuildingPredictor struct {
	fakePredictor
	m *Manager
}

func (p *rebuildingPredictor) PredictForUser(u int64, items []int64) ([]float64, []bool) {
	p.m.Invalidate()
	return p.fakePredictor.PredictForUser(u, items)
}

// TestRunDropsAdmissionsAcrossARebuild: a run whose model is rebuilt while
// it predicts stores none of those predictions, so nothing computed from
// the replaced model outlives the rebuild's Invalidate.
func TestRunDropsAdmissionsAcrossARebuild(t *testing.T) {
	src := &swappable{}
	m := New(src.model, 0, func() float64 { return 1 }, 0, Metrics{})
	ix := m.Index()
	m.RecordQuery(1)
	m.RecordUpdate(5)
	m.RecordUpdate(6)
	pred := &rebuildingPredictor{fakePredictor{users: []int64{1}, items: []int64{5, 6}}, m}
	src.p = pred
	dec := m.Run()
	if dec.Admitted != 0 || ix.Len() != 0 {
		t.Fatalf("admitted %d, index holds %d entries after the model was rebuilt mid-run", dec.Admitted, ix.Len())
	}
	// With the model left alone the same pairs are admitted.
	m.RecordQuery(1)
	m.RecordUpdate(5)
	m.RecordUpdate(6)
	src.p = &pred.fakePredictor
	if dec = m.Run(); dec.Admitted != 2 || ix.Len() != 2 {
		t.Fatalf("admitted %d (index %d)", dec.Admitted, ix.Len())
	}
}

// TestMaterializeRefusesAReplacedModel: a rebuild that lands while
// MaterializeUser or MaterializeAll predicts leaves no complete tree of
// the replaced model's scores; both return a *ModelReplacedError, and
// materializing again with the model left alone fills the trees.
func TestMaterializeRefusesAReplacedModel(t *testing.T) {
	src := &swappable{}
	m := New(src.model, 0.5, func() float64 { return 0 }, 0, Metrics{})
	ix := m.Index()
	pred := &rebuildingPredictor{fakePredictor{users: []int64{1, 2}, items: []int64{10, 11}}, m}
	for name, materialize := range map[string]func() error{
		"MaterializeUser": func() error { return m.MaterializeUser(1) },
		"MaterializeAll":  m.MaterializeAll,
	} {
		var mre *ModelReplacedError
		src.p = pred
		if err := materialize(); !errors.As(err, &mre) || mre.User != 1 {
			t.Fatalf("%s: got %v, want a *ModelReplacedError for user 1", name, err)
		}
		if ix.Complete(1) || ix.Len() != 0 {
			t.Fatalf("%s: the index kept %d scores of the replaced model", name, ix.Len())
		}
		src.p = &pred.fakePredictor
		if err := materialize(); err != nil || !ix.Complete(1) {
			t.Fatalf("%s: again with the model left alone: %v, complete %v", name, err, ix.Complete(1))
		}
		m.Invalidate()
	}
}

// TestTable1_PaperExample replays the worked example of Table I: two users
// (Alice=1, Bob=2), three movies (Spartacus=1, Inception=2, TheMatrix=3),
// TSinit=10, maintenance at TSnow=15, HOTNESS-THRESHOLD=0.5.
func TestTable1_PaperExample(t *testing.T) {
	ts := 10.0
	clock := func() float64 { return ts }
	pred := &fakePredictor{users: []int64{1, 2}, items: []int64{1, 2, 3}}
	m := newFixed(pred, 0.5, clock)
	ix := m.Index()

	// Alice: QC=100 at TS=10 → D = 100/(15-10) = 20.
	for q := 0; q < 100; q++ {
		m.RecordQuery(1)
	}
	// Spartacus: UC=1000; The Matrix: UC=100, both with activity windows
	// matching the table.
	for q := 0; q < 100; q++ {
		m.RecordUpdate(3)
	}
	ts = 12
	// Bob: QC=10 at TS=12 → D = 10/5 = 2.
	for q := 0; q < 10; q++ {
		m.RecordQuery(2)
	}
	for q := 0; q < 1000; q++ {
		m.RecordUpdate(1)
	}
	for q := 0; q < 10; q++ {
		m.RecordUpdate(2)
	}

	// RecScoreIndex initially holds t1 = (Bob, Inception), which the paper
	// says lands on the eviction list.
	ix.Put(2, 2, 3.3)

	ts = 15
	dec := m.Run()

	// Rates per the table.
	if s, _ := m.UserStatOf(1); math.Abs(s.DemandRate-20) > 1e-9 {
		t.Errorf("D_Alice = %v, want 20", s.DemandRate)
	}
	if s, _ := m.UserStatOf(2); math.Abs(s.DemandRate-2) > 1e-9 {
		t.Errorf("D_Bob = %v, want 2", s.DemandRate)
	}
	if s, _ := m.ItemStatOf(1); math.Abs(s.ConsumptionRate-200) > 1e-9 {
		t.Errorf("P_Spartacus = %v, want 200", s.ConsumptionRate)
	}
	if s, _ := m.ItemStatOf(2); math.Abs(s.ConsumptionRate-2) > 1e-9 {
		t.Errorf("P_Inception = %v, want 2", s.ConsumptionRate)
	}
	if s, _ := m.ItemStatOf(3); math.Abs(s.ConsumptionRate-20) > 1e-9 {
		t.Errorf("P_TheMatrix = %v, want 20", s.ConsumptionRate)
	}

	// Hotness ratios (Table I(c)): note the paper's printed value for
	// (Alice, The Matrix) is 0.01 but (20/20)×(20/200) = 0.1; we match the
	// formula.
	wantHot := map[[2]int64]float64{
		{1, 1}: 1, {1, 2}: 0.01, {1, 3}: 0.1,
		{2, 1}: 0.1, {2, 2}: 0.001, {2, 3}: 0.01,
	}
	for k, want := range wantHot {
		if got := m.Hotness(k[0], k[1]); math.Abs(got-want) > 1e-9 {
			t.Errorf("Hot(%d,%d) = %v, want %v", k[0], k[1], got, want)
		}
	}

	// Threshold 0.5: only (Alice, Spartacus) admitted; (Bob, Inception)
	// evicted from the index.
	if dec.Admitted != 1 {
		t.Errorf("admitted = %d, want 1", dec.Admitted)
	}
	if _, ok := ix.Get(1, 1); !ok {
		t.Error("(Alice, Spartacus) should be materialized")
	}
	if _, ok := ix.Get(2, 2); ok {
		t.Error("(Bob, Inception) should be evicted")
	}
	if dec.Evicted != 1 {
		t.Errorf("evicted = %d, want 1", dec.Evicted)
	}
	if len(dec.AdmissionList) != 1 || len(dec.EvictionList) != 5 {
		t.Errorf("list sizes: %d admit, %d evict", len(dec.AdmissionList), len(dec.EvictionList))
	}
}

func TestThresholdZeroMaterializesEverything(t *testing.T) {
	ts := 0.0
	clock := func() float64 { return ts }
	m := newFixed(&fakePredictor{users: []int64{1, 2}, items: []int64{5, 6}}, 0, clock)
	m.RecordQuery(1)
	m.RecordQuery(2)
	m.RecordUpdate(5)
	m.RecordUpdate(6)
	ts = 10
	dec := m.Run()
	if dec.Admitted != 4 {
		t.Fatalf("admitted = %d, want all 4 pairs", dec.Admitted)
	}
}

func TestThresholdOneMaterializesNothing(t *testing.T) {
	ts := 0.0
	clock := func() float64 { return ts }
	m := newFixed(&fakePredictor{users: []int64{1}, items: []int64{5}}, 1.0000001, clock)
	m.RecordQuery(1)
	m.RecordUpdate(5)
	ts = 10
	dec := m.Run()
	if dec.Admitted != 0 || m.Index().Len() != 0 {
		t.Fatalf("admitted = %d with len %d, want 0", dec.Admitted, m.Index().Len())
	}
}

func TestAdmissionSkipsSeenItems(t *testing.T) {
	ts := 0.0
	clock := func() float64 { return ts }
	pred := &fakePredictor{
		users: []int64{1},
		items: []int64{5, 6},
		seen:  map[int64]map[int64]float64{1: {5: 4.0}},
	}
	m := newFixed(pred, 0, clock)
	ix := m.Index()
	m.RecordQuery(1)
	m.RecordUpdate(5)
	m.RecordUpdate(6)
	ts = 10
	dec := m.Run()
	if dec.Admitted != 1 {
		t.Fatalf("admitted = %d, want 1 (item 5 already rated)", dec.Admitted)
	}
	if _, ok := ix.Get(1, 5); ok {
		t.Fatal("rated item must not be materialized")
	}
	if _, ok := ix.Get(1, 6); !ok {
		t.Fatal("unrated item should be materialized")
	}
}

func TestRunOnlyConsidersTouchedSinceLastRun(t *testing.T) {
	ts := 0.0
	clock := func() float64 { return ts }
	m := newFixed(&fakePredictor{users: []int64{1}, items: []int64{5}}, 0, clock)
	m.RecordQuery(1)
	m.RecordUpdate(5)
	ts = 10
	m.Run()
	// Second run with no new activity considers nobody.
	ts = 20
	dec := m.Run()
	if len(dec.AdmissionList)+len(dec.EvictionList) != 0 {
		t.Fatalf("stale users/items considered: %+v", dec)
	}
}

func TestMaterializeUserAndAll(t *testing.T) {
	pred := &fakePredictor{
		users: []int64{1, 2},
		items: []int64{10, 11, 12},
		seen:  map[int64]map[int64]float64{1: {10: 5}},
	}
	m := newFixed(pred, 0.5, func() float64 { return 0 })
	ix := m.Index()
	if err := m.MaterializeUser(1); err != nil {
		t.Fatal(err)
	}
	if ix.UserLen(1) != 2 {
		t.Fatalf("UserLen(1) = %d, want 2 (one item seen)", ix.UserLen(1))
	}
	if err := m.MaterializeAll(); err != nil {
		t.Fatal(err)
	}
	if ix.UserLen(2) != 3 {
		t.Fatalf("UserLen(2) = %d, want 3", ix.UserLen(2))
	}
	m.Invalidate()
	if ix.Len() != 0 {
		t.Fatal("Invalidate should clear the index")
	}
}

func TestBackgroundMaintenance(t *testing.T) {
	m := newFixed(&fakePredictor{users: []int64{1}, items: []int64{5}}, 0, nil) // wall clock
	ix := m.Index()
	m.RecordQuery(1)
	m.RecordUpdate(5)
	m.Start(5 * time.Millisecond)
	defer m.Stop()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if _, ok := ix.Get(1, 5); ok {
			m.Stop()
			m.Stop() // double-stop is safe
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("background maintenance never materialized the hot pair")
}

func TestHotnessUnknownIsZero(t *testing.T) {
	m := newFixed(&fakePredictor{}, 0.5, func() float64 { return 0 })
	if m.Hotness(1, 1) != 0 {
		t.Fatal("unknown user/item hotness should be 0")
	}
}

func TestWallClockDefault(t *testing.T) {
	// nil clock uses wall time; rates stay finite and ordered.
	m := newFixed(&fakePredictor{}, 0.5, nil)
	m.RecordQuery(1)
	m.RecordUpdate(2)
	if s, ok := m.UserStatOf(1); !ok || s.QueryCount != 1 {
		t.Fatalf("user stat: %+v %v", s, ok)
	}
	if s, ok := m.ItemStatOf(2); !ok || s.UpdateCount != 1 {
		t.Fatalf("item stat: %+v %v", s, ok)
	}
	if _, ok := m.UserStatOf(9); ok {
		t.Fatal("missing user stat should be absent")
	}
	if _, ok := m.ItemStatOf(9); ok {
		t.Fatal("missing item stat should be absent")
	}
}
