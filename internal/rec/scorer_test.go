package rec

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"testing"
)

// TestScorerMatchesModel: whichever side the Scorer's rule picks, every
// score has the reference's bits (refPredict: Equation 2 added in ascending
// id over the rating maps, or a dot product of the factors), and a store
// that is user-based or SVD is never scored from the user's side. Each
// user is scored over every item (more candidates than ratings:
// user-driven when item-based) and over a two-item list (item-driven: no
// user here rated fewer than two items). Each subtest keeps the name it
// had beside the capped-list cases, which went with the cap.
func TestScorerMatchesModel(t *testing.T) {
	for _, algo := range []Algorithm{ItemCosCF, ItemPearCF, UserCosCF, UserPearCF, SVD} {
		t.Run(fmt.Sprintf("%v/top0", algo), func(t *testing.T) {
			ratings := hubRatings(algo.ItemBased())
			store := mustBuild(t, ratings, algo, BuildOptions{SVDSeed: 1, SVDEpochs: 3})
			byUser, byItem := ratingMaps(ratings)
			all := store.ItemIDs()
			sides := map[bool]int{}
			for _, items := range [][]int64{all, {all[0], all[len(all)-1]}} {
				sc := store.Scorer(len(items))
				for _, u := range store.UserIDs() {
					sc.ForUser(u)
					if want := algo.ItemBased() && len(items) > len(sc.seen); sc.UserDriven() != want {
						t.Fatalf("user %d with %d ratings over %d candidates: user-driven %v", u, len(sc.seen), len(items), sc.UserDriven())
					}
					sides[sc.UserDriven()]++
					for _, i := range items {
						got, gotOK := sc.Score(i)
						want, wantOK := refPredict(store, byUser, byItem, u, i)
						if gotOK != wantOK || math.Float64bits(got) != math.Float64bits(want) {
							t.Fatalf("user %d item %d (user-driven %v): %v %v, reference %v %v",
								u, i, sc.UserDriven(), got, gotOK, want, wantOK)
						}
					}
				}
			}
			if sides[false] == 0 || (algo.ItemBased() && sides[true] == 0) {
				t.Fatalf("fixture did not reach both sides: %v", sides)
			}
		})
	}
}

// ratingMaps returns ratings keyed by user then item, and by item then
// user; a repeated pair keeps its last value, as the model does.
func ratingMaps(ratings []Rating) (byUser, byItem map[int64]map[int64]float64) {
	byUser, byItem = map[int64]map[int64]float64{}, map[int64]map[int64]float64{}
	for _, r := range ratings {
		if byUser[r.User] == nil {
			byUser[r.User] = map[int64]float64{}
		}
		if byItem[r.Item] == nil {
			byItem[r.Item] = map[int64]float64{}
		}
		byUser[r.User][r.Item], byItem[r.Item][r.User] = r.Value, r.Value
	}
	return byUser, byItem
}

// refPredict is the reference prediction of (u, i) from s's lists or
// factors, independent of the Scorer: Equation 2 over the rating maps,
// added in ascending id (neighbourhood algorithms), or the dot product of
// the two factor vectors (SVD).
func refPredict(s *ModelStore, byUser, byItem map[int64]map[int64]float64, u, i int64) (float64, bool) {
	switch {
	case s.Algo.ItemBased():
		return equation2(s.ItemNeighbors(i), byUser[u], ascendingID)
	case s.Algo.UserBased():
		return equation2(s.UserNeighbors(u), byItem[i], ascendingID)
	}
	p, q := s.userVecs[u], s.itemVecs[i]
	if p == nil || q == nil {
		return 0, false
	}
	var dot float64
	for f := range p {
		dot += p[f] * q[f]
	}
	return dot, true
}

func ascendingID(a, b Neighbor) int { return cmp.Compare(a.ID, b.ID) }

// strongerFirst is the order Equation 2 is not added in, the contrast to
// ascendingID: descending |sim|, then ascending id.
func strongerFirst(a, b Neighbor) int {
	if sa, sb := math.Abs(a.Sim), math.Abs(b.Sim); sa != sb {
		if sa > sb {
			return -1
		}
		return 1
	}
	return cmp.Compare(a.ID, b.ID)
}

// orderRatings is 40 users x 60 items, about a third of the pairs rated,
// at ratings with many mantissa bits: Equation 2's sums then round one way
// added strongest neighbour first and another added in ascending id for
// many pairs.
func orderRatings() []Rating {
	rng := newDeterministicRand(11)
	var out []Rating
	for u := int64(1); u <= 40; u++ {
		for i := int64(1); i <= 60; i++ {
			if rng.next()%3 == 0 {
				out = append(out, Rating{User: u, Item: i, Value: 1 + float64(rng.next()%4000)/997})
			}
		}
	}
	return out
}

// equation2 is the reference: the matched terms of list against known,
// added in the order order puts the list in.
func equation2(list []Neighbor, known map[int64]float64, order func(a, b Neighbor) int) (float64, bool) {
	list = slices.Clone(list)
	slices.SortFunc(list, order)
	var num, den float64
	for _, n := range list {
		if r, ok := known[n.ID]; ok {
			num += n.Sim * r
			den += math.Abs(n.Sim)
		}
	}
	if den == 0 {
		return 0, false
	}
	return num / den, true
}

// TestEquation2AddsInAscendingID pins the summation order: on a fixture
// where strongest-first and ascending-id order round differently, every
// path — user-driven, streamed item-driven and Predict —
// returns the ascending-id bits.
func TestEquation2AddsInAscendingID(t *testing.T) {
	ratings := orderRatings()
	byUser, byItem := ratingMaps(ratings)
	for _, algo := range []Algorithm{ItemCosCF, UserPearCF} {
		t.Run(algo.String(), func(t *testing.T) {
			store := mustBuild(t, ratings, algo, BuildOptions{})
			all := store.ItemIDs()
			scorers := []struct {
				name string
				sc   *Scorer
			}{
				{"all items", store.Scorer(len(all))}, // user-driven when item-based
				{"streamed", store.Scorer(1)},
			}
			diverged := 0
			for _, u := range store.UserIDs() {
				for _, s := range scorers {
					s.sc.ForUser(u)
				}
				if scorers[0].sc.UserDriven() != algo.ItemBased() {
					t.Fatalf("user %d: user-driven %v", u, scorers[0].sc.UserDriven())
				}
				for _, i := range all {
					list, known := store.ItemNeighbors(i), byUser[u]
					if !algo.ItemBased() {
						list, known = store.UserNeighbors(u), byItem[i]
					}
					want, wantOK := equation2(list, known, ascendingID)
					if strongFirst, _ := equation2(list, known, strongerFirst); math.Float64bits(strongFirst) != math.Float64bits(want) {
						diverged++
					}
					if got, ok := store.Predict(u, i); ok != wantOK || math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("Predict(%d, %d) = %v %v, ascending id gives %v %v", u, i, got, ok, want, wantOK)
					}
					for _, s := range scorers {
						got, ok := s.sc.Score(i)
						if ok != wantOK || math.Float64bits(got) != math.Float64bits(want) {
							t.Fatalf("%s scorer (%d, %d) = %v %v, ascending id gives %v %v", s.name, u, i, got, ok, want, wantOK)
						}
					}
				}
			}
			if diverged == 0 {
				t.Fatal("fixture: strongest-first and ascending-id order agree on every pair")
			}
		})
	}
}

// TestPredictWeightedAllocatesNothing: Predict, which Evaluate scores
// every pair through, merges the item's list with the user's ratings
// (PredictWeighted) and allocates nothing.
func TestPredictWeightedAllocatesNothing(t *testing.T) {
	model := mustBuild(t, orderRatings(), ItemCosCF, BuildOptions{})
	users, items := model.UserIDs(), model.ItemIDs()
	n := 0
	if allocs := testing.AllocsPerRun(100, func() {
		model.Predict(users[n%len(users)], items[n%len(items)])
		n++
	}); allocs != 0 {
		t.Fatalf("Predict allocates %.1f times per call", allocs)
	}
}

// TestPredictForUnknownUserAllocatesNothing: a user with no ratings has
// no score on either side, so Predict answers without the user-driven
// side's item-sized accumulator — on a store that has that side.
func TestPredictForUnknownUserAllocatesNothing(t *testing.T) {
	model := mustBuild(t, benchRatings(60, 300, 0.1), ItemCosCF, BuildOptions{})
	items := model.ItemIDs()
	sc := model.Scorer(len(items))
	if sc.ForUser(model.UserIDs()[0]); !sc.UserDriven() || len(items) != 300 {
		t.Fatalf("fixture: user-driven %v, %d items", sc.UserDriven(), len(items))
	}
	n := 0
	if allocs := testing.AllocsPerRun(100, func() {
		if _, ok := model.Predict(-1, items[n%len(items)]); ok {
			t.Fatal("an unknown user was scored")
		}
		n++
	}); allocs != 0 {
		t.Fatalf("Predict for an unknown user allocates %.1f times per call", allocs)
	}
}

// TestWarmForUserAllocatesNothing: once a scorer has loaded a user,
// loading a user again allocates nothing — item-based over every item
// (user-driven) and over fewer candidates than any user has ratings
// (item-driven), user-based, and SVD. The subtest names are the ones the
// suite has always printed.
func TestWarmForUserAllocatesNothing(t *testing.T) {
	for _, tc := range []struct {
		name       string
		algo       Algorithm
		userDriven bool
	}{
		{"ItemCosCF/top0", ItemCosCF, true},
		{"ItemCosCF/top10", ItemCosCF, false},
		{"UserCosCF/top0", UserCosCF, false},
		{"SVD/top0", SVD, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			store := mustBuild(t, orderRatings(), tc.algo, BuildOptions{SVDSeed: 1})
			users := store.UserIDs()
			candidates := len(store.ItemIDs())
			if !tc.userDriven {
				candidates = 1 // every user here rated more than one item
			}
			sc := store.Scorer(candidates)
			for _, u := range users {
				if sc.ForUser(u); sc.UserDriven() != tc.userDriven {
					t.Fatalf("user %d: user-driven %v, want %v", u, sc.UserDriven(), tc.userDriven)
				}
			}
			n := 0
			if allocs := testing.AllocsPerRun(100, func() {
				sc.ForUser(users[n%len(users)])
				n++
			}); allocs != 0 {
				t.Fatalf("a warmed ForUser allocates %.1f times per call", allocs)
			}
		})
	}
}
