package ann

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"testing"
)

// synthFactors builds a synthetic latent-factor set the shape SVD training
// produces: n items, dim dimensions, clustered around a few archetypes so
// the IVF structure has something to find.
func synthFactors(n, dim int, seed int64) ([]int64, map[int64][]float64) {
	rng := rand.New(rand.NewSource(seed))
	const archetypes = 6
	centers := make([][]float64, archetypes)
	for a := range centers {
		c := make([]float64, dim)
		for d := range c {
			c[d] = rng.NormFloat64()
		}
		centers[a] = c
	}
	items := make([]int64, n)
	vecs := make(map[int64][]float64, n)
	for i := 0; i < n; i++ {
		id := int64(i + 1)
		items[i] = id
		c := centers[rng.Intn(archetypes)]
		v := make([]float64, dim)
		for d := range v {
			v[d] = c[d] + 0.3*rng.NormFloat64()
		}
		vecs[id] = v
	}
	return items, vecs
}

// exactTopK is the reference scorer: every item, exact dot product,
// descending score with ascending-id tie-break.
func exactTopK(items []int64, vecs map[int64][]float64, q []float64, k int) []int64 {
	type scored struct {
		id    int64
		score float64
	}
	all := make([]scored, 0, len(items))
	for _, id := range items {
		all = append(all, scored{id, dot(q, vecs[id])})
	}
	sort.Slice(all, func(a, b int) bool {
		if all[a].score != all[b].score {
			return all[a].score > all[b].score
		}
		return all[a].id < all[b].id
	})
	if k > len(all) {
		k = len(all)
	}
	out := make([]int64, k)
	for i := range out {
		out[i] = all[i].id
	}
	return out
}

// annTopK serves top-k through the index: probe nprobe lists, re-rank
// candidates with exact dot products.
func annTopK(ix *Index, q []float64, nprobe, k int) []int64 {
	order := ix.ProbeOrder(q)
	cands := ix.Candidates(order, nprobe)
	type scored struct {
		id    int64
		score float64
	}
	all := make([]scored, 0, len(cands))
	for _, p := range cands {
		id, v := ix.At(p)
		all = append(all, scored{id, dot(q, v)})
	}
	sort.Slice(all, func(a, b int) bool {
		if all[a].score != all[b].score {
			return all[a].score > all[b].score
		}
		return all[a].id < all[b].id
	})
	if k > len(all) {
		k = len(all)
	}
	out := make([]int64, k)
	for i := range out {
		out[i] = all[i].id
	}
	return out
}

// TestFullProbeEquivalence is the backbone invariant: at nprobe = K the
// candidate set is exactly the item universe and the re-ranked top-k is
// byte-identical to the exact scan, for every seeded model shape.
func TestFullProbeEquivalence(t *testing.T) {
	cases := []struct {
		n, dim    int
		centroids int // 0 builds Build's ⌈√n⌉
		seed      int64
	}{
		{40, 8, 0, 1},
		{200, 10, 0, 2},
		{500, 10, 16, 3},
		{500, 16, 40, 4},
		{999, 10, 0, 5},
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("n%d_dim%d_seed%d", tc.n, tc.dim, tc.seed), func(t *testing.T) {
			items, vecs := synthFactors(tc.n, tc.dim, tc.seed)
			var ix *Index
			if tc.centroids == 0 {
				ix = Build(items, vecs, tc.seed)
			} else {
				ix = build(items, vecs, tc.seed, tc.centroids, runtime.GOMAXPROCS(0))
			}
			k := ix.NumCentroids()

			// Every item in exactly one posting list.
			total := 0
			for c := 0; c < k; c++ {
				total += len(ix.lists[c])
			}
			if total != tc.n {
				t.Fatalf("posting lists cover %d items, want %d", total, tc.n)
			}

			rng := rand.New(rand.NewSource(tc.seed + 100))
			for trial := 0; trial < 20; trial++ {
				q := make([]float64, tc.dim)
				for d := range q {
					q[d] = rng.NormFloat64()
				}
				order := ix.ProbeOrder(q)
				cands := ix.Candidates(order, k)
				if len(cands) != tc.n {
					t.Fatalf("full probe gathered %d candidates, want %d", len(cands), tc.n)
				}
				for p, c := range cands {
					if int(c) != p {
						t.Fatalf("full-probe candidates not the ascending universe at %d: %d", p, c)
					}
				}
				got := annTopK(ix, q, k, 10)
				want := exactTopK(items, vecs, q, 10)
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("full-probe top-10 diverges at %d: got %v want %v", i, got, want)
					}
				}
			}
		})
	}
}

// TestDefaultProbeRecall measures recall@10 at the default nprobe across
// 3 seeds: the approximate path must find at least 90% of the exact
// top-10, averaged over query vectors.
func TestDefaultProbeRecall(t *testing.T) {
	for _, seed := range []int64{11, 22, 33} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			const n, dim, queries = 800, 10, 50
			items, vecs := synthFactors(n, dim, seed)
			ix := Build(items, vecs, seed)
			if ix.DefaultNProbe() >= ix.NumCentroids() {
				t.Fatalf("default nprobe %d does not prune (K=%d)", ix.DefaultNProbe(), ix.NumCentroids())
			}
			rng := rand.New(rand.NewSource(seed + 7))
			hits, want := 0, 0
			for trial := 0; trial < queries; trial++ {
				q := make([]float64, dim)
				for d := range q {
					q[d] = rng.NormFloat64()
				}
				exact := exactTopK(items, vecs, q, 10)
				approx := annTopK(ix, q, ix.DefaultNProbe(), 10)
				in := make(map[int64]bool, len(approx))
				for _, id := range approx {
					in[id] = true
				}
				for _, id := range exact {
					want++
					if in[id] {
						hits++
					}
				}
			}
			recall := float64(hits) / float64(want)
			t.Logf("recall@10 = %.3f (nprobe %d of %d centroids)", recall, ix.DefaultNProbe(), ix.NumCentroids())
			if recall < 0.9 {
				t.Fatalf("recall@10 = %.3f < 0.9 at default nprobe", recall)
			}
		})
	}
}

// TestBuildWorkerDeterminism: the built index — its centroids, item
// vectors, assignments and posting lists — must be bit-identical at any
// worker count under one seed.
func TestBuildWorkerDeterminism(t *testing.T) {
	items, vecs := synthFactors(600, 12, 99)
	k := int(math.Ceil(math.Sqrt(600)))
	base := build(items, vecs, 99, k, 1)
	for _, w := range []int{2, 3, 4, 8} {
		got := build(items, vecs, 99, k, w)
		if d := indexDiff(base, got); d != "" {
			t.Fatalf("index built with %d workers differs from serial build: %s", w, d)
		}
	}
	// And a different seed must (overwhelmingly) differ.
	other := build(items, vecs, 100, k, 1)
	if indexDiff(base, other) == "" {
		t.Fatalf("different seeds produced identical indexes")
	}
}

// indexDiff reports the first difference between two indexes, floats
// compared by math.Float64bits, or "" when there is none.
func indexDiff(a, b *Index) string {
	if a.dim != b.dim || a.seed != b.seed || a.defaultNProbe != b.defaultNProbe {
		return fmt.Sprintf("header (%d, %d, %d) vs (%d, %d, %d)", a.dim, a.seed, a.defaultNProbe, b.dim, b.seed, b.defaultNProbe)
	}
	if d := vecsDiff(a.centroids, b.centroids); d != "" {
		return "centroids: " + d
	}
	if d := vecsDiff(a.vecs, b.vecs); d != "" {
		return "item vectors: " + d
	}
	if !slices.Equal(a.items, b.items) || !slices.Equal(a.assign, b.assign) {
		return "items or assignments differ"
	}
	if !slices.EqualFunc(a.lists, b.lists, slices.Equal[[]int32]) {
		return "posting lists differ"
	}
	return ""
}

func vecsDiff(a, b [][]float64) string {
	if len(a) != len(b) {
		return fmt.Sprintf("%d vectors vs %d", len(a), len(b))
	}
	for x := range a {
		if !slices.EqualFunc(a[x], b[x], func(p, q float64) bool { return math.Float64bits(p) == math.Float64bits(q) }) {
			return fmt.Sprintf("vector %d: %v vs %v", x, a[x], b[x])
		}
	}
	return ""
}

// TestEmptyAndTiny: degenerate inputs must not panic and stay consistent.
func TestEmptyAndTiny(t *testing.T) {
	ix := Build(nil, nil, 1)
	if ix.NumCentroids() != 0 || ix.NumItems() != 0 {
		t.Fatalf("empty build: %d centroids %d items", ix.NumCentroids(), ix.NumItems())
	}
	one := Build([]int64{7}, map[int64][]float64{7: {1, 2}}, 1)
	if one.NumCentroids() != 1 || one.DefaultNProbe() != 1 {
		t.Fatalf("single-item build: K=%d nprobe=%d", one.NumCentroids(), one.DefaultNProbe())
	}
	got := annTopK(one, []float64{1, 0}, 1, 10)
	if len(got) != 1 || got[0] != 7 {
		t.Fatalf("single-item probe: %v", got)
	}
}

func TestRunChunksCoversRange(t *testing.T) {
	for _, workers := range []int{1, 3, 8, 100} {
		counts := make([]int32, 37)
		RunChunks(workers, len(counts), func(_, lo, hi int) {
			for x := lo; x < hi; x++ {
				counts[x]++
			}
		})
		for x, c := range counts {
			if c != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, x, c)
			}
		}
	}
}
