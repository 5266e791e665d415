package reccache

import (
	"errors"
	"math"
	"sync/atomic"
	"testing"
	"time"

	"recdb/internal/recindex"
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
	return New(func() Predictor { return p }, threshold, clock, Metrics{})
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
// it predicts fills no tree with those predictions, so nothing computed from
// the replaced model outlives the rebuild's Invalidate.
func TestRunDropsAdmissionsAcrossARebuild(t *testing.T) {
	src := &swappable{}
	m := New(src.model, 0, func() float64 { return 1 }, Metrics{})
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
	// With the model left alone the same user is admitted, its tree whole.
	m.RecordQuery(1)
	m.RecordUpdate(5)
	m.RecordUpdate(6)
	src.p = &pred.fakePredictor
	if dec = m.Run(); dec.Admitted != 1 || !ix.Complete(1) || ix.Len() != 2 {
		t.Fatalf("admitted %d (index %d)", dec.Admitted, ix.Len())
	}
}

// TestMaterializeRefusesAReplacedModel: a rebuild that lands while
// MaterializeUser or MaterializeAll predicts leaves no complete tree of
// the replaced model's scores; both return a *ModelReplacedError, and
// materializing again with the model left alone fills the trees.
func TestMaterializeRefusesAReplacedModel(t *testing.T) {
	src := &swappable{}
	m := New(src.model, 0.5, func() float64 { return 0 }, Metrics{})
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
// TSinit=10, maintenance at TSnow=15, HOTNESS-THRESHOLD=0.5. The paper
// admits the one pair (Alice, Spartacus) and evicts (Bob, Inception); per
// user, Alice's tree is filled whole and Bob's is dropped.
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
	// says lands on the eviction list: Bob has a tree.
	if err := m.MaterializeUser(2); err != nil {
		t.Fatal(err)
	}

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

	// Threshold 0.5: Alice is hot through (Alice, Spartacus), and her tree
	// is filled with all three movies; Bob's hottest pair is 0.1, so his
	// tree is dropped.
	if dec.Admitted != 1 || dec.Evicted != 1 {
		t.Errorf("admitted %d, evicted %d users, want 1 and 1", dec.Admitted, dec.Evicted)
	}
	if got := entries(ix, 1); len(got) != 3 || got[0] != (recindex.Entry{Item: 3, Score: 13}) {
		t.Errorf("Alice's tree = %v, want every movie, The Matrix first", got)
	}
	if ix.Complete(2) {
		t.Error("Bob's tree should be dropped")
	}
}

// TestEarlyBurstDoesNotPinTheMaxima: DMAX and PMAX are the largest rates
// as of the run, not the largest ever seen. A burst of 4 queries and 1
// update in the cache's first millisecond would otherwise set DMAX to
// 4 000 and PMAX to 1 000, and user 1's 1 000 queries by t = 100 s would
// score 5e-8 against them.
func TestEarlyBurstDoesNotPinTheMaxima(t *testing.T) {
	ts := 0.0
	clock := func() float64 { return ts }
	m := newFixed(&fakePredictor{users: []int64{1, 2}, items: []int64{5, 6}}, 0.5, clock)
	ts = 0.001
	for q := 0; q < 4; q++ {
		m.RecordQuery(2)
	}
	m.RecordUpdate(6)
	m.Run()
	if err := m.MaterializeAll(); err != nil {
		t.Fatal(err)
	}
	m.Invalidate() // a rebuild
	for q := 0; q < 1000; q++ {
		ts = 0.001 + float64(q+1)*0.0999
		m.RecordQuery(1)
	}
	m.RecordUpdate(5)
	m.RecordUpdate(5)
	ts = 100
	dec := m.Run()
	if got := m.Hotness(1, 5); math.Abs(got-1) > 1e-9 {
		t.Errorf("Hot(1,5) = %v, want 1", got)
	}
	if dec.Admitted != 1 || !m.Index().Complete(1) {
		t.Errorf("admitted %d, user 1 complete %v: want user 1 refilled", dec.Admitted, m.Index().Complete(1))
	}
}

// entries collects user's RecTree in Descend order.
func entries(ix *recindex.Index, user int64) []recindex.Entry {
	var out []recindex.Entry
	ix.Descend(user, nil, func(e recindex.Entry) bool {
		out = append(out, e)
		return true
	})
	return out
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
	if dec.Admitted != 2 || m.Index().Len() != 4 {
		t.Fatalf("admitted %d users, %d entries; want both users, all 4 pairs", dec.Admitted, m.Index().Len())
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
	if dec := m.Run(); dec.Admitted != 1 {
		t.Fatalf("admitted %d users, want 1", dec.Admitted)
	}
	// Item 5 is rated: the tree holds item 6 alone, as in MaterializeUser.
	if got := entries(ix, 1); len(got) != 1 || got[0].Item != 6 {
		t.Fatalf("user 1's tree = %v, want item 6 alone", got)
	}
}

func TestRunOnlyConsidersTouchedSinceLastRun(t *testing.T) {
	ts := 0.0
	clock := func() float64 { return ts }
	m := newFixed(&fakePredictor{users: []int64{1}, items: []int64{5}}, 0, clock)
	m.RecordQuery(1)
	m.RecordUpdate(5)
	ts = 10
	if dec := m.Run(); dec.Admitted != 1 {
		t.Fatalf("first run: %+v", dec)
	}
	// Second run with no new activity considers nobody: user 1 would be
	// cold at this threshold, and keeps its tree.
	m.Threshold = 2
	ts = 20
	if dec := m.Run(); dec != (Decision{}) || !m.Index().Complete(1) {
		t.Fatalf("stale users/items considered: %+v", dec)
	}
	// Demand with no consumption since is still no pair: no decision.
	m.RecordQuery(1)
	ts = 30
	if dec := m.Run(); dec != (Decision{}) || !m.Index().Complete(1) {
		t.Fatalf("a user decided with I' empty: %+v", dec)
	}
	// A hot user who already has a tree keeps it; a cold one loses it.
	m.Threshold = 0
	m.RecordQuery(1)
	m.RecordUpdate(5)
	ts = 40
	if dec := m.Run(); dec != (Decision{}) || !m.Index().Complete(1) {
		t.Fatalf("a hot user's tree was refilled: %+v", dec)
	}
	m.Threshold = 2
	m.RecordQuery(1)
	m.RecordUpdate(5)
	ts = 50
	if dec := m.Run(); dec.Evicted != 1 || m.Index().Complete(1) {
		t.Fatalf("a cold user kept its tree: %+v", dec)
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
	if n := len(entries(ix, 1)); n != 2 {
		t.Fatalf("user 1's tree has %d entries, want 2 (one item seen)", n)
	}
	if err := m.MaterializeAll(); err != nil {
		t.Fatal(err)
	}
	if n := len(entries(ix, 2)); n != 3 {
		t.Fatalf("user 2's tree has %d entries, want 3", n)
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
		if ix.Complete(1) {
			m.Stop()
			m.Stop() // double-stop is safe
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("background maintenance never materialized the hot user")
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
