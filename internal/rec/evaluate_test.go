package rec

import (
	"math"
	"testing"
)

// threesModel predicts exactly 3.0 for items 1 and 2, for every user: a
// Popularity store whose every item scores 3.
func threesModel() *ModelStore {
	return &ModelStore{Algo: Popularity, ratings: indexRatings(nil), scores: map[int64]float64{1: 3, 2: 3}}
}

func TestEvaluateMetrics(t *testing.T) {
	m := threesModel()
	test := []Rating{
		{1, 1, 3.0}, // error 0
		{1, 2, 5.0}, // error 2
		{2, 1, 2.0}, // error 1
		{9, 9, 4.0}, // unscorable
	}
	ev := Evaluate(m, test)
	if ev.Scorable != 3 || ev.Unscorable != 1 {
		t.Fatalf("counts: %+v", ev)
	}
	wantRMSE := math.Sqrt((0 + 4 + 1) / 3.0)
	if math.Abs(ev.RMSE-wantRMSE) > 1e-12 {
		t.Fatalf("RMSE = %v, want %v", ev.RMSE, wantRMSE)
	}
	if math.Abs(ev.MAE-1.0) > 1e-12 {
		t.Fatalf("MAE = %v, want 1", ev.MAE)
	}
}

func TestEvaluateEmpty(t *testing.T) {
	ev := Evaluate(threesModel(), nil)
	if ev.RMSE != 0 || ev.Scorable != 0 {
		t.Fatalf("%+v", ev)
	}
}

func TestSplitRatings(t *testing.T) {
	ratings := make([]Rating, 10)
	for i := range ratings {
		ratings[i] = Rating{User: int64(i), Item: 1, Value: 1}
	}
	train, test := SplitRatings(ratings, 5)
	if len(train) != 8 || len(test) != 2 {
		t.Fatalf("split sizes: %d/%d", len(train), len(test))
	}
	if test[0].User != 4 || test[1].User != 9 {
		t.Fatalf("held out: %+v", test)
	}
	train, test = SplitRatings(ratings, 0)
	if len(train) != 10 || test != nil {
		t.Fatalf("k<2 split: %d/%d", len(train), len(test))
	}
}

func TestEvaluateRealAlgorithmsOrdering(t *testing.T) {
	// On latent-structured data, ItemCosCF should comfortably beat a model
	// that always predicts the global mean... at minimum, all algorithms
	// should produce finite errors within the rating scale.
	var ratings []Rating
	rng := newDeterministicRand(11)
	for u := int64(1); u <= 30; u++ {
		for i := int64(1); i <= 40; i++ {
			if rng.next()%3 != 0 {
				continue
			}
			base := 1 + (u+i)%5
			ratings = append(ratings, Rating{u, i, float64(base)})
		}
	}
	train, test := SplitRatings(ratings, 4)
	for _, algo := range []Algorithm{ItemCosCF, ItemPearCF, UserCosCF, UserPearCF, SVD, Popularity} {
		m, err := Build(train, algo, BuildOptions{SVDSeed: 2, SVDEpochs: 60})
		if err != nil {
			t.Fatal(err)
		}
		ev := Evaluate(m, test)
		if ev.Scorable == 0 {
			t.Fatalf("%v: nothing scorable", algo)
		}
		if math.IsNaN(ev.RMSE) || ev.RMSE > 5 {
			t.Fatalf("%v: RMSE %v out of range", algo, ev.RMSE)
		}
		if ev.MAE > ev.RMSE+1e-9 {
			t.Fatalf("%v: MAE %v exceeds RMSE %v", algo, ev.MAE, ev.RMSE)
		}
	}
}
