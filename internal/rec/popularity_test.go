package rec

import (
	"math"
	"slices"
	"testing"
)

func TestBuildPopularityScores(t *testing.T) {
	m := mustBuild(t, paperRatings(), Popularity, BuildOptions{})
	// Global mean = (1.5+3.5+4.5+2+1+2+1)/7 = 15.5/7.
	wantMean := 15.5 / 7
	// Item 1: ratings 1.5, 4.5, 2 → (8 + 5·mean)/(3+5).
	want1 := (8 + PopularityDamping*wantMean) / (3 + PopularityDamping)
	got1, ok := m.ItemScoreOf(1)
	if !ok || math.Abs(got1-want1) > 1e-12 {
		t.Fatalf("score(1) = %v, want %v", got1, want1)
	}
	// Item 3 has a single rating of 2 and is pulled toward the mean.
	got3, _ := m.ItemScoreOf(3)
	want3 := (2 + PopularityDamping*wantMean) / (1 + PopularityDamping)
	if math.Abs(got3-want3) > 1e-12 {
		t.Fatalf("score(3) = %v, want %v", got3, want3)
	}
	if _, ok := m.ItemScoreOf(99); ok {
		t.Fatal("unknown item should have no score")
	}
}

func TestPopularityPredictIsUserIndependent(t *testing.T) {
	m := mustBuild(t, paperRatings(), Popularity, BuildOptions{})
	p1, ok1 := m.Predict(1, 2)
	p2, ok2 := m.Predict(3, 2)
	pCold, okCold := m.Predict(999, 2) // unknown user: cold-start works
	if !ok1 || !ok2 || !okCold || p1 != p2 || p1 != pCold {
		t.Fatalf("predictions differ across users: %v %v %v", p1, p2, pCold)
	}
	if _, ok := m.Predict(1, 99); ok {
		t.Fatal("unknown item should not predict")
	}
}

func TestPopularityStoreAccessors(t *testing.T) {
	m := mustBuild(t, paperRatings(), Popularity, BuildOptions{})
	if m.Algo != Popularity || m.ratings.n != 7 {
		t.Fatalf("model: %v %d", m.Algo, m.ratings.n)
	}
	if v, ok := m.Seen(2, 1); !ok || v != 4.5 {
		t.Fatalf("Seen: %v %v", v, ok)
	}
}

func TestPopularityMaterializeAndPredict(t *testing.T) {
	store := mustBuild(t, paperRatings(), Popularity, BuildOptions{})
	hasRelations(t, store, "uservector", "itemscore")
	for _, i := range store.ItemIDs() {
		want := store.scores[i]
		got, ok := store.Predict(1, i)
		if !ok || math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("store predict(%d): %v %v, want %v", i, got, ok, want)
		}
	}
	if _, ok := store.Predict(1, 99); ok {
		t.Fatal("unknown item predicted")
	}
}

func TestPopularityEmptyRatings(t *testing.T) {
	m := mustBuild(t, nil, Popularity, BuildOptions{})
	if len(m.scores) != 0 || m.ratings.n != 0 {
		t.Fatalf("empty model: %v %d", m.scores, m.ratings.n)
	}
	if _, ok := m.Predict(1, 1); ok {
		t.Fatal("empty model should not predict")
	}
}

// TestPopularityBuildIsDeterministic: the same fractional ratings, given
// again or in another order, build the same score for every item, bit for
// bit.
func TestPopularityBuildIsDeterministic(t *testing.T) {
	rng := newDeterministicRand(29)
	var ratings []Rating
	for u := int64(1); u <= 200; u++ {
		for k := int64(0); k < 30; k++ {
			item := 1 + (u*7+k*13)%90 // 30 distinct items per user
			ratings = append(ratings, Rating{User: u, Item: item, Value: 1 + float64(rng.next()%4000)/997})
		}
	}
	shuffled := slices.Clone(ratings)
	for x := len(shuffled) - 1; x > 0; x-- {
		y := int(rng.next() % int64(x+1))
		shuffled[x], shuffled[y] = shuffled[y], shuffled[x]
	}
	first := mustBuild(t, ratings, Popularity, BuildOptions{})
	for pass := 0; pass < 20; pass++ {
		input := ratings
		if pass%2 == 1 {
			input = shuffled
		}
		m := mustBuild(t, input, Popularity, BuildOptions{})
		for _, i := range first.ItemIDs() {
			got, _ := m.ItemScoreOf(i)
			want, _ := first.ItemScoreOf(i)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("build %d: item %d scores %v, first build %v", pass, i, got, want)
			}
		}
	}
}
