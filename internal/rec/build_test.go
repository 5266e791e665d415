package rec

import (
	"math"
	"slices"
	"testing"
	"testing/quick"
)

func TestParseAlgorithm(t *testing.T) {
	cases := map[string]Algorithm{
		"ItemCosCF": ItemCosCF, "itempearcf": ItemPearCF,
		"USERCOSCF": UserCosCF, "UserPearCF": UserPearCF,
		"svd": SVD, "": DefaultAlgorithm,
	}
	for name, want := range cases {
		got, err := ParseAlgorithm(name)
		if err != nil || got != want {
			t.Errorf("ParseAlgorithm(%q) = %v, %v", name, got, err)
		}
	}
	if _, err := ParseAlgorithm("DeepLearning"); err == nil {
		t.Error("unknown algorithm should fail")
	}
}

func TestAlgorithmPredicates(t *testing.T) {
	if !ItemCosCF.ItemBased() || !ItemPearCF.ItemBased() || UserCosCF.ItemBased() || SVD.ItemBased() {
		t.Error("ItemBased classification wrong")
	}
	if !UserCosCF.UserBased() || !UserPearCF.UserBased() || ItemCosCF.UserBased() {
		t.Error("UserBased classification wrong")
	}
	if !ItemPearCF.Pearson() || !UserPearCF.Pearson() || ItemCosCF.Pearson() {
		t.Error("Pearson classification wrong")
	}
	for _, a := range []Algorithm{ItemCosCF, ItemPearCF, UserCosCF, UserPearCF, SVD} {
		if a.String() == "" || a.String()[0] == 'A' {
			t.Errorf("String() for %d: %q", int(a), a.String())
		}
	}
}

// paperRatings is Figure 1(c) from the paper.
func paperRatings() []Rating {
	return []Rating{
		{1, 1, 1.5},
		{2, 2, 3.5}, {2, 1, 4.5}, {2, 3, 2},
		{3, 2, 1}, {3, 1, 2},
		{4, 2, 1},
	}
}

func TestItemCosineSimilarityHandComputed(t *testing.T) {
	m, err := Build(paperRatings(), ItemCosCF, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Item vectors in user space: i1 = (1.5, 4.5, 2, 0), i2 = (0, 3.5, 1, 1),
	// i3 = (0, 2, 0, 0).
	// sim(1,2) = (4.5*3.5 + 2*1) / (||i1|| * ||i2||).
	dot12 := 4.5*3.5 + 2.0*1.0
	n1 := math.Sqrt(1.5*1.5 + 4.5*4.5 + 2*2)
	n2 := math.Sqrt(3.5*3.5 + 1 + 1)
	want12 := dot12 / (n1 * n2)
	got := simOf(t, m, 1, 2)
	if math.Abs(got-want12) > 1e-12 {
		t.Errorf("sim(1,2) = %v, want %v", got, want12)
	}
	// sim(1,3): co-rated by user 2 only: 4.5*2 / (||i1||*||i3||).
	want13 := 4.5 * 2 / (n1 * 2)
	if got := simOf(t, m, 1, 3); math.Abs(got-want13) > 1e-12 {
		t.Errorf("sim(1,3) = %v, want %v", got, want13)
	}
	// Symmetry.
	if simOf(t, m, 2, 1) != simOf(t, m, 1, 2) {
		t.Error("similarity should be symmetric")
	}
}

// mustBuild builds algo's model over ratings, failing the test on an error.
func mustBuild(tb testing.TB, ratings []Rating, algo Algorithm, opts BuildOptions) *ModelStore {
	tb.Helper()
	s, err := Build(ratings, algo, opts)
	if err != nil {
		tb.Fatal(err)
	}
	return s
}

func simOf(t *testing.T, s *ModelStore, a, b int64) float64 {
	t.Helper()
	sim, ok := ValueOf(lists(s)[a], b)
	if !ok {
		t.Fatalf("no neighbor %d of %d", b, a)
	}
	return sim
}

func TestItemCFPredictEquation2(t *testing.T) {
	m, _ := Build(paperRatings(), ItemCosCF, BuildOptions{})
	// Predict item 3 for user 3 (rated items 1 and 2).
	// RecScore = (sim(3,1)*r31 + sim(3,2)*r32) / (|sim(3,1)| + |sim(3,2)|).
	s31, s32 := simOf(t, m, 3, 1), simOf(t, m, 3, 2)
	want := (s31*2 + s32*1) / (math.Abs(s31) + math.Abs(s32))
	got, ok := m.Predict(3, 3)
	if !ok || math.Abs(got-want) > 1e-12 {
		t.Fatalf("Predict(3,3) = %v, %v; want %v", got, ok, want)
	}
}

func TestPredictNoOverlap(t *testing.T) {
	// User 5 has rated nothing: no prediction basis.
	m, _ := Build(paperRatings(), ItemCosCF, BuildOptions{})
	if _, ok := m.Predict(5, 1); ok {
		t.Error("prediction for unknown user should fail")
	}
	// Disjoint items: two users rating disjoint item sets.
	m2, _ := Build([]Rating{{1, 1, 5}, {2, 2, 3}}, ItemCosCF, BuildOptions{})
	if _, ok := m2.Predict(1, 2); ok {
		t.Error("prediction with empty neighborhood intersection should fail")
	}
}

func TestSeenAndAccessors(t *testing.T) {
	m, _ := Build(paperRatings(), ItemCosCF, BuildOptions{})
	if v, ok := m.Seen(2, 1); !ok || v != 4.5 {
		t.Errorf("Seen(2,1) = %v, %v", v, ok)
	}
	if _, ok := m.Seen(1, 3); ok {
		t.Error("Seen(1,3) should be false")
	}
	if got := m.UserIDs(); len(got) != 4 || got[0] != 1 || got[3] != 4 {
		t.Errorf("Users: %v", got)
	}
	if got := m.ItemIDs(); len(got) != 3 {
		t.Errorf("Items: %v", got)
	}
	if m.ratings.n != 7 {
		t.Errorf("%d ratings", m.ratings.n)
	}
	if m.Algo != ItemCosCF {
		t.Errorf("Algo = %v", m.Algo)
	}
	if rs := m.UserItems(1); len(rs) != 1 || rs[0] != (Neighbor{ID: 1, Sim: 1.5}) {
		t.Errorf("UserItems(1): %v", rs)
	}
}

func TestPearsonCentersVectors(t *testing.T) {
	// Two items with identical rating *patterns* shifted by a constant have
	// Pearson similarity 1 but cosine < 1 only in non-centered terms; with
	// ratings perfectly linearly related, centered cosine = 1.
	ratings := []Rating{
		{1, 1, 1}, {2, 1, 2}, {3, 1, 3},
		{1, 2, 3}, {2, 2, 4}, {3, 2, 5},
	}
	m, _ := Build(ratings, ItemPearCF, BuildOptions{})
	if got := simOf(t, m, 1, 2); math.Abs(got-1) > 1e-9 {
		t.Errorf("Pearson sim of linearly related items = %v, want 1", got)
	}
}

func TestUserBasedModel(t *testing.T) {
	m, err := Build(paperRatings(), UserCosCF, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Users 2 and 3 co-rated items 1 and 2.
	// u2 = (4.5, 3.5, 2), u3 = (2, 1, 0) over items (1,2,3).
	dot := 4.5*2 + 3.5*1
	n2 := math.Sqrt(4.5*4.5 + 3.5*3.5 + 4)
	n3 := math.Sqrt(5)
	want := dot / (n2 * n3)
	if got := simOf(t, m, 2, 3); math.Abs(got-want) > 1e-12 {
		t.Errorf("user sim(2,3) = %v, want %v", got, want)
	}
	// Predict item 3 for user 3: neighbors of 3 who rated item 3 = {2}.
	s23 := simOf(t, m, 3, 2)
	wantPred := (s23 * 2) / math.Abs(s23)
	got, ok := m.Predict(3, 3)
	if !ok || math.Abs(got-wantPred) > 1e-12 {
		t.Errorf("UserCF Predict(3,3) = %v, %v; want %v", got, ok, wantPred)
	}
}

func TestBuildRejectsWrongAlgorithm(t *testing.T) {
	if _, err := Build(paperRatings(), Algorithm(99), BuildOptions{}); err == nil {
		t.Error("Build(Algorithm(99)) should fail")
	}
}

// TestIndexRatingsLastValueWins scatters three copies of one (user, item)
// pair among 1 000 ratings: the index keeps the last copy's value, and
// both CSR views stay ascending.
func TestIndexRatingsLastValueWins(t *testing.T) {
	rng := newDeterministicRand(11)
	ratings := make([]Rating, 1000)
	for x := range ratings {
		ratings[x] = Rating{User: 1 + rng.next()%40, Item: 1 + rng.next()%60, Value: 1}
		if ratings[x].User == 7 && ratings[x].Item == 9 {
			ratings[x].Item = 61 // (7, 9) only where placed below
		}
	}
	ratings[3] = Rating{User: 7, Item: 9, Value: 2}
	ratings[517] = Rating{User: 7, Item: 9, Value: 3}
	ratings[996] = Rating{User: 7, Item: 9, Value: 4}
	ix := indexRatings(ratings)
	if v, ok := ValueOf(ix.userRun(7), 9); !ok || v != 4 {
		t.Fatalf("user 7's rating of item 9 = (%v, %v), want (4, true)", v, ok)
	}
	if v, ok := ValueOf(ix.itemRun(9), 7); !ok || v != 4 {
		t.Fatalf("item 9's rating by user 7 = (%v, %v), want (4, true)", v, ok)
	}
	for _, side := range []struct {
		name string
		keys []int64
		runs runSet
	}{{"byUser", ix.users, ix.byUser}, {"byItem", ix.items, ix.byItem}} {
		if !slices.IsSorted(side.keys) {
			t.Fatalf("%s keys not ascending", side.name)
		}
		total := 0
		for p := range side.keys {
			run := side.runs.run(p)
			total += len(run)
			for x := 1; x < len(run); x++ {
				if run[x-1].ID >= run[x].ID {
					t.Fatalf("%s run %d not strictly ascending at %d: %v", side.name, side.keys[p], x, run)
				}
			}
		}
		if total != ix.n {
			t.Fatalf("%s runs hold %d ratings, index holds %d", side.name, total, ix.n)
		}
	}
}

// rankOneRatings is a rank-1 rating matrix over 4 users x 5 items, with
// the entries where (u+i) mod 3 = 0 held out.
func rankOneRatings() []Rating {
	var ratings []Rating
	userW := []float64{1, 2, 3, 4}
	itemW := []float64{1.2, 0.8, 1.5, 0.5, 1.0}
	for u := range userW {
		for i := range itemW {
			if (u+i)%3 == 0 {
				continue // hold out some entries
			}
			ratings = append(ratings, Rating{int64(u + 1), int64(i + 1), userW[u] * itemW[i]})
		}
	}
	return ratings
}

func TestSVDLearnsRatings(t *testing.T) {
	// A rank-1 rating matrix should be learnable to low error.
	ratings := rankOneRatings()
	m, err := Build(ratings, SVD, BuildOptions{SVDFactors: 4, SVDEpochs: 200, SVDRate: 0.02, SVDSeed: 42})
	if err != nil {
		t.Fatal(err)
	}
	var se, n float64
	for _, r := range ratings {
		p, ok := m.Predict(r.User, r.Item)
		if !ok {
			t.Fatalf("no prediction for %v", r)
		}
		se += (p - r.Value) * (p - r.Value)
		n++
	}
	rmse := math.Sqrt(se / n)
	if rmse > 0.3 {
		t.Fatalf("training RMSE = %v, want < 0.3", rmse)
	}
	// Held-out entries generalize roughly (rank-1 structure).
	p, ok := m.Predict(1, 1) // held out: (0+0)%3==0
	if !ok {
		t.Fatal("no prediction for held-out pair")
	}
	if math.Abs(p-1.2) > 0.8 {
		t.Errorf("held-out prediction %v too far from 1.2", p)
	}
}

func TestSVDDeterministic(t *testing.T) {
	ratings := paperRatings()
	m1, _ := Build(ratings, SVD, BuildOptions{SVDSeed: 7})
	m2, _ := Build(ratings, SVD, BuildOptions{SVDSeed: 7})
	p1, _ := m1.Predict(1, 2)
	p2, _ := m2.Predict(1, 2)
	if p1 != p2 {
		t.Fatalf("same seed, different predictions: %v vs %v", p1, p2)
	}
}

func TestSVDUnknownIDs(t *testing.T) {
	m, _ := Build(paperRatings(), SVD, BuildOptions{})
	if _, ok := m.Predict(99, 1); ok {
		t.Error("unknown user should not predict")
	}
	if _, ok := m.Predict(1, 99); ok {
		t.Error("unknown item should not predict")
	}
}

func TestBuildDispatch(t *testing.T) {
	for _, algo := range []Algorithm{ItemCosCF, ItemPearCF, UserCosCF, UserPearCF, SVD, Popularity} {
		m, err := Build(paperRatings(), algo, BuildOptions{})
		if err != nil {
			t.Fatalf("Build(%v): %v", algo, err)
		}
		if m.Algo != algo {
			t.Fatalf("Build(%v) returned %v model", algo, m.Algo)
		}
	}
}

func TestPredictWeighted(t *testing.T) {
	neighbors := []Neighbor{{ID: 1, Sim: 0.5}, {ID: 2, Sim: -0.25}, {ID: 3, Sim: 0.8}}
	known := []Neighbor{{ID: 1, Sim: 4}, {ID: 2, Sim: 2}}
	// (0.5*4 + -0.25*2) / (0.5 + 0.25) = 1.5/0.75 = 2.
	got, ok := PredictWeighted(neighbors, known)
	if !ok || math.Abs(got-2) > 1e-12 {
		t.Fatalf("PredictWeighted = %v, %v", got, ok)
	}
	if _, ok := PredictWeighted(neighbors, []Neighbor{{ID: 9, Sim: 1}}); ok {
		t.Error("no intersection should not predict")
	}
	if _, ok := PredictWeighted(nil, known); ok {
		t.Error("empty neighborhood should not predict")
	}
}

func TestSimilarityBoundsProperty(t *testing.T) {
	// Cosine similarity is always in [-1, 1]; predictions stay within the
	// range of the user's own ratings for item-based CF.
	f := func(seed int64) bool {
		rng := newDeterministicRand(seed)
		var ratings []Rating
		for u := int64(1); u <= 8; u++ {
			for i := int64(1); i <= 12; i++ {
				if rng.next()%3 == 0 {
					ratings = append(ratings, Rating{u, i, float64(1 + rng.next()%5)})
				}
			}
		}
		m, err := Build(ratings, ItemCosCF, BuildOptions{})
		if err != nil {
			return false
		}
		for _, i := range m.ItemIDs() {
			for _, n := range m.ItemNeighbors(i) {
				if n.Sim < -1-1e-9 || n.Sim > 1+1e-9 {
					return false
				}
			}
		}
		for _, u := range m.UserIDs() {
			lo, hi := math.Inf(1), math.Inf(-1)
			for _, i := range m.ItemIDs() {
				if v, ok := m.Seen(u, i); ok {
					lo, hi = math.Min(lo, v), math.Max(hi, v)
				}
			}
			for _, i := range m.ItemIDs() {
				if p, ok := m.Predict(u, i); ok {
					// Weighted average with non-negative weights stays in
					// [lo, hi]; negative sims can exceed slightly, so allow
					// the full rating span as a sanity envelope.
					if p < lo-4 || p > hi+4 {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// deterministicRand is a tiny LCG for property tests.
type deterministicRand struct{ state uint64 }

func newDeterministicRand(seed int64) *deterministicRand {
	return &deterministicRand{state: uint64(seed)*2862933555777941757 + 3037000493}
}

func (r *deterministicRand) next() int64 {
	r.state = r.state*6364136223846793005 + 1442695040888963407
	return int64(r.state >> 33)
}
