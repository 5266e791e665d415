package rec

import (
	"math"
	"slices"
	"testing"
)

func TestBuildPopularityScores(t *testing.T) {
	m := BuildPopularity(paperRatings())
	// Global mean = (1.5+3.5+4.5+2+1+2+1)/7 = 15.5/7.
	wantMean := 15.5 / 7
	if math.Abs(m.GlobalMean()-wantMean) > 1e-12 {
		t.Fatalf("global mean %v, want %v", m.GlobalMean(), wantMean)
	}
	// Item 1: ratings 1.5, 4.5, 2 → (8 + 5·mean)/(3+5).
	want1 := (8 + PopularityDamping*wantMean) / (3 + PopularityDamping)
	got1, ok := m.Score(1)
	if !ok || math.Abs(got1-want1) > 1e-12 {
		t.Fatalf("score(1) = %v, want %v", got1, want1)
	}
	// Item 3 has a single rating of 2 and is pulled toward the mean.
	got3, _ := m.Score(3)
	want3 := (2 + PopularityDamping*wantMean) / (1 + PopularityDamping)
	if math.Abs(got3-want3) > 1e-12 {
		t.Fatalf("score(3) = %v, want %v", got3, want3)
	}
	if _, ok := m.Score(99); ok {
		t.Fatal("unknown item should have no score")
	}
}

func TestPopularityPredictIsUserIndependent(t *testing.T) {
	m := BuildPopularity(paperRatings())
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

func TestPopularityRanking(t *testing.T) {
	m := BuildPopularity(paperRatings())
	ranking := m.Ranking()
	if len(ranking) != 3 {
		t.Fatalf("ranking: %v", ranking)
	}
	for i := 1; i < len(ranking); i++ {
		a, _ := m.Score(ranking[i-1])
		b, _ := m.Score(ranking[i])
		if a < b {
			t.Fatalf("ranking not descending: %v", ranking)
		}
	}
}

func TestPopularityModelInterface(t *testing.T) {
	m, err := Build(paperRatings(), Popularity, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if m.Algorithm() != Popularity || m.NumRatings() != 7 {
		t.Fatalf("model: %v %d", m.Algorithm(), m.NumRatings())
	}
	if v, ok := m.Seen(2, 1); !ok || v != 4.5 {
		t.Fatalf("Seen: %v %v", v, ok)
	}
}

func TestPopularityMaterializeAndPredict(t *testing.T) {
	model := BuildPopularity(paperRatings())
	store, err := Materialize(model)
	if err != nil {
		t.Fatal(err)
	}
	hasRelations(t, store, "uservector", "itemscore")
	for _, i := range model.Items() {
		want, _ := model.Score(i)
		got, ok := store.Predict(1, i)
		if !ok || math.Abs(got-want) > 1e-12 {
			t.Fatalf("store predict(%d): %v %v, want %v", i, got, ok, want)
		}
	}
	if _, ok := store.Predict(1, 99); ok {
		t.Fatal("unknown item predicted")
	}
}

func TestPopularityEmptyRatings(t *testing.T) {
	m := BuildPopularity(nil)
	if m.GlobalMean() != 0 || m.NumRatings() != 0 {
		t.Fatalf("empty model: %v %d", m.GlobalMean(), m.NumRatings())
	}
	if _, ok := m.Predict(1, 1); ok {
		t.Fatal("empty model should not predict")
	}
}

// TestPopularityBuildIsDeterministic: the same fractional ratings, given
// again or in another order, build the same global mean and the same
// score for every item, bit for bit.
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
	first := BuildPopularity(ratings)
	for pass := 0; pass < 20; pass++ {
		input := ratings
		if pass%2 == 1 {
			input = shuffled
		}
		m := BuildPopularity(input)
		if math.Float64bits(m.GlobalMean()) != math.Float64bits(first.GlobalMean()) {
			t.Fatalf("build %d: global mean %v, first build %v", pass, m.GlobalMean(), first.GlobalMean())
		}
		for _, i := range first.Items() {
			got, _ := m.Score(i)
			want, _ := first.Score(i)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("build %d: item %d scores %v, first build %v", pass, i, got, want)
			}
		}
	}
}
