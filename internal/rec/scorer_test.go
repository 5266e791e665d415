package rec

import (
	"fmt"
	"math"
	"testing"

	"recdb/internal/catalog"
)

// TestScorerMatchesModel: whichever side the Scorer's rule picks, every
// score has the in-memory model's bits, and a store whose lists were
// truncated is never scored from the user's side. Each user is scored
// over every item (more candidates than ratings: user-driven when the
// lists are whole) and over a two-item list (item-driven: no user here
// rated fewer than two items).
func TestScorerMatchesModel(t *testing.T) {
	for _, algo := range []Algorithm{ItemCosCF, ItemPearCF} {
		for _, size := range []int{0, 1, 3, 10} {
			t.Run(fmt.Sprintf("%v/top%d", algo, size), func(t *testing.T) {
				model, err := BuildNeighborhood(hubRatings(true), algo, BuildOptions{NeighborhoodSize: size})
				if err != nil {
					t.Fatal(err)
				}
				store, err := Materialize(catalog.New(nil, 0), "m", model)
				if err != nil {
					t.Fatal(err)
				}
				if store.symmetric != (size == 0) {
					t.Fatalf("store symmetric = %v with NeighborhoodSize %d (the hub's list is longer than every cap)", store.symmetric, size)
				}
				all := store.ItemIDs()
				sides := map[bool]int{}
				for _, items := range [][]int64{all, {all[0], all[len(all)-1]}} {
					// The memo serves the long list's item-driven side; the
					// two-item list streams its runs.
					sc := store.Scorer(len(items) > 2, len(items))
					for _, u := range store.UserIDs() {
						if err := sc.ForUser(u); err != nil {
							t.Fatal(err)
						}
						if size > 0 && sc.UserDriven() {
							t.Fatalf("user %d of a truncated store scored user-driven", u)
						}
						if want := size == 0 && len(items) > len(sc.seen); sc.UserDriven() != want {
							t.Fatalf("user %d with %d ratings over %d candidates: user-driven %v", u, len(sc.seen), len(items), sc.UserDriven())
						}
						sides[sc.UserDriven()]++
						for _, i := range items {
							got, gotOK, err := sc.Score(i)
							want, wantOK := model.Predict(u, i)
							if err != nil || gotOK != wantOK || math.Float64bits(got) != math.Float64bits(want) {
								t.Fatalf("user %d item %d (user-driven %v): %v %v %v, model %v %v",
									u, i, sc.UserDriven(), got, gotOK, err, want, wantOK)
							}
						}
					}
				}
				if sides[false] == 0 || (size == 0 && sides[true] == 0) {
					t.Fatalf("fixture did not reach both sides: %v", sides)
				}
			})
		}
	}
}
