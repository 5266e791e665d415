package rec

import (
	"fmt"
	"testing"
)

// equivalenceRatings is a small but irregular dataset: ragged user
// histories, duplicate values, and a rating count that does not divide
// evenly by any worker count.
func equivalenceRatings() []Rating {
	rng := newDeterministicRand(7)
	var out []Rating
	for u := int64(1); u <= 60; u++ {
		n := 3 + rng.next()%12
		for x := int64(0); x < n; x++ {
			out = append(out, Rating{
				User:  u,
				Item:  1 + rng.next()%80,
				Value: float64(1 + rng.next()%5),
			})
		}
	}
	return out
}

// TestNeighborhoodParallelEquivalence asserts the tentpole guarantee for
// the four neighborhood algorithms: the model built with one worker is
// bit-identical to the model built with four (and with a worker count
// larger than the entity count).
func TestNeighborhoodParallelEquivalence(t *testing.T) {
	ratings := equivalenceRatings()
	for _, algo := range []Algorithm{ItemCosCF, ItemPearCF, UserCosCF, UserPearCF} {
		serial, err := build(ratings, algo, BuildOptions{NeighborhoodSize: 10}, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{4, 1000} {
			parallel, err := build(ratings, algo, BuildOptions{NeighborhoodSize: 10}, workers)
			if err != nil {
				t.Fatal(err)
			}
			if len(lists(parallel)) != len(lists(serial)) {
				t.Fatalf("%v workers=%d: %d entities with neighbors, want %d",
					algo, workers, len(lists(parallel)), len(lists(serial)))
			}
			for e, want := range lists(serial) {
				got := lists(parallel)[e]
				if len(got) != len(want) {
					t.Fatalf("%v workers=%d entity %d: %d neighbors, want %d", algo, workers, e, len(got), len(want))
				}
				for x := range want {
					if got[x] != want[x] {
						t.Fatalf("%v workers=%d entity %d neighbor %d: got %+v, want %+v",
							algo, workers, e, x, got[x], want[x])
					}
				}
			}
		}
	}
}

// lists returns a neighbourhood model's similarity lists, by item or by
// user.
func lists(s *ModelStore) map[int64][]Neighbor {
	if s.Algo.ItemBased() {
		return s.itemLists
	}
	return s.userLists
}

// TestSVDParallelEquivalence asserts the stratified SGD schedule trains
// bit-identical factors at any worker count.
func TestSVDParallelEquivalence(t *testing.T) {
	ratings := equivalenceRatings()
	serial, err := build(ratings, SVD, BuildOptions{SVDSeed: 42, SVDEpochs: 5}, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 32} {
		parallel, err := build(ratings, SVD, BuildOptions{SVDSeed: 42, SVDEpochs: 5}, workers)
		if err != nil {
			t.Fatal(err)
		}
		for u, want := range serial.userVecs {
			got := parallel.userVecs[u]
			for f := range want {
				if got[f] != want[f] {
					t.Fatalf("workers=%d user %d factor %d: got %v, want %v", workers, u, f, got[f], want[f])
				}
			}
		}
		for i, want := range serial.itemVecs {
			got := parallel.itemVecs[i]
			for f := range want {
				if got[f] != want[f] {
					t.Fatalf("workers=%d item %d factor %d: got %v, want %v", workers, i, f, got[f], want[f])
				}
			}
		}
	}
}

// TestPredictionParallelEquivalence closes the loop at the Predict level for
// all five algorithms: every (user, item) prediction from a 4-worker
// build equals the 1-worker build exactly.
func TestPredictionParallelEquivalence(t *testing.T) {
	ratings := equivalenceRatings()
	for _, algo := range []Algorithm{ItemCosCF, ItemPearCF, UserCosCF, UserPearCF, SVD} {
		serial, err := build(ratings, algo, BuildOptions{SVDSeed: 9, SVDEpochs: 4}, 1)
		if err != nil {
			t.Fatal(err)
		}
		parallel, err := build(ratings, algo, BuildOptions{SVDSeed: 9, SVDEpochs: 4}, 4)
		if err != nil {
			t.Fatal(err)
		}
		for _, u := range serial.UserIDs() {
			for _, i := range serial.ItemIDs() {
				ws, wok := serial.Predict(u, i)
				ps, pok := parallel.Predict(u, i)
				if wok != pok || ws != ps {
					t.Fatalf("%v predict(%d, %d): workers=4 got (%v, %v), workers=1 got (%v, %v)",
						algo, u, i, ps, pok, ws, wok)
				}
			}
		}
	}
}

// movieLensRatings is the MovieLens-100K-shaped synthetic dataset of the
// scaling experiments: 943 users × 1682 items at ~6.3% density ≈ 100K
// ratings.
func movieLensRatings() []Rating {
	return benchRatings(943, 1682, 0.063)
}

func BenchmarkBuildNeighborhood(b *testing.B) {
	ratings := movieLensRatings()
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := build(ratings, ItemCosCF, BuildOptions{}, workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkBuildSVD(b *testing.B) {
	ratings := movieLensRatings()
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := build(ratings, SVD, BuildOptions{SVDSeed: 1, SVDEpochs: 5}, workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
