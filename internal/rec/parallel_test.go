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
		serial, err := build(ratings, algo, BuildOptions{}, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{4, 1000} {
			parallel, err := build(ratings, algo, BuildOptions{}, workers)
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
		return listMap(s.ratings.items, s.itemLists)
	}
	return listMap(s.ratings.users, s.userLists)
}

// listMap returns the non-empty runs of a similarity runSet keyed by
// their entity, ids being the entities in position order, after checking
// that every row's at is its neighbour's position among ids.
func listMap(ids []int64, set runSet) map[int64][]Neighbor {
	out := map[int64][]Neighbor{}
	for p, id := range ids {
		run, at := set.run(p), set.ats(p)
		for x, n := range run {
			if ids[at[x]] != n.ID {
				panic(fmt.Sprintf("list of %d: row %d is %d, but its at is %d's position", id, x, n.ID, ids[at[x]]))
			}
		}
		if len(run) > 0 {
			out[id] = run
		}
	}
	return out
}

// svdFixtures are the rating sets the DSGD schedule is checked on: the
// irregular equivalence set (60 users, which 8 does not divide), the
// rank-1 set of TestSVDLearnsRatings (4 users x 5 items, fewer than
// svdStrata on both sides, so some strata are empty), and a set whose user
// and item counts 8 does not divide.
var svdFixtures = []struct {
	name    string
	ratings func() []Rating
}{
	{"equivalence", equivalenceRatings},
	{"rank-one", rankOneRatings},
	{"19x27", func() []Rating { return benchRatings(19, 27, 0.25) }},
}

// TestSVDParallelEquivalence asserts the stratified SGD schedule trains
// bit-identical factors at any worker count.
func TestSVDParallelEquivalence(t *testing.T) {
	for _, fx := range svdFixtures {
		ratings := fx.ratings()
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
						t.Fatalf("%s workers=%d user %d factor %d: got %v, want %v", fx.name, workers, u, f, got[f], want[f])
					}
				}
			}
			for i, want := range serial.itemVecs {
				got := parallel.itemVecs[i]
				for f := range want {
					if got[f] != want[f] {
						t.Fatalf("%s workers=%d item %d factor %d: got %v, want %v", fx.name, workers, i, f, got[f], want[f])
					}
				}
			}
		}
	}
}

// TestSVDBlocksPartitionRatings asserts that every deduplicated rating
// lands in exactly one DSGD block, the one of its user's and its item's
// strata, so the block sizes sum to the index's rating count.
func TestSVDBlocksPartitionRatings(t *testing.T) {
	for _, fx := range svdFixtures {
		ix := indexRatings(fx.ratings())
		nu, ni := len(ix.users), len(ix.items)
		sum := 0
		for b, block := range svdBlocks(ix) {
			sum += len(block)
			for _, s := range block {
				if us, is := int(s.pu)*svdStrata/nu, int(s.pi)*svdStrata/ni; us*svdStrata+is != b {
					t.Fatalf("%s: rating (%d, %d) in block %d, want block %d", fx.name, s.pu, s.pi, b, us*svdStrata+is)
				}
			}
		}
		if sum != ix.n {
			t.Fatalf("%s: blocks hold %d ratings, index holds %d", fx.name, sum, ix.n)
		}
	}
}

// TestSVDAllocsFlatInEpochs pins the cost of the schedule's RNG and of its
// workers: re-seeding a block's shuffle allocates nothing, and the workers
// start once and meet at a barrier per rotation, so an SVD build's
// allocations do not grow with its epoch count, at one worker or two.
func TestSVDAllocsFlatInEpochs(t *testing.T) {
	ratings := equivalenceRatings()
	for _, workers := range []int{1, 2} {
		allocs := func(epochs int) float64 {
			return testing.AllocsPerRun(5, func() {
				if _, err := build(ratings, SVD, BuildOptions{SVDSeed: 3, SVDEpochs: epochs}, workers); err != nil {
					t.Fatal(err)
				}
			})
		}
		one, twenty := allocs(1), allocs(20)
		if twenty > one+4 {
			t.Fatalf("workers=%d: SVD build allocates %v times at 20 epochs, %v at 1: the schedule allocates per epoch", workers, twenty, one)
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

// buildShapes are the two shapes the build kernels are timed at: the seed
// ratings of one shard of the benchmark ledger (~1 900 ratings, 94 users x
// 336 items), which every CREATE RECOMMENDER and every §III-A rebuild of a
// ledger cluster builds, at the ledger's default 20 SVD epochs; and the
// MovieLens-100K shape of the paper's experiments, at 5 SVD epochs.
var buildShapes = []struct {
	name      string
	ratings   func() []Rating
	svdEpochs int
}{
	{"ledger-shard", func() []Rating { return benchRatings(94, 336, 0.06) }, 0},
	{"movielens", movieLensRatings, 5},
}

// benchBuild times the build of algo for every shape at workers {1, 2, 4},
// as sub-benchmarks shape=S/workers=W.
func benchBuild(b *testing.B, algo Algorithm) {
	for _, shape := range buildShapes {
		ratings := shape.ratings()
		opts := BuildOptions{SVDSeed: 1, SVDEpochs: shape.svdEpochs}
		b.Run("shape="+shape.name, func(b *testing.B) {
			for _, workers := range []int{1, 2, 4} {
				b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						if _, err := build(ratings, algo, opts, workers); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		})
	}
}

func BenchmarkBuildNeighborhood(b *testing.B) { benchBuild(b, ItemCosCF) }

func BenchmarkBuildSVD(b *testing.B) { benchBuild(b, SVD) }
