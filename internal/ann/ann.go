// Package ann implements a pure-Go inverted-file (IVF) approximate
// nearest-neighbor index over item latent-factor vectors, the vector-native
// serving path for SVD recommenders. Build time k-means clusters the item
// vectors into centroids with per-centroid posting lists; query time ranks
// the centroids by dot product with the user vector, probes the nprobe
// nearest lists, and re-ranks the gathered candidates with exact dot
// products. Probing every centroid visits every item exactly once, so the
// full-probe result is identical to an exact scan — the exactness invariant
// the test harness is built on.
//
// The k-means build follows the repo-wide parallelism discipline: every
// accumulator is owned by exactly one worker and sums its terms in a fixed
// order, so the index is bit-identical at any worker count under one seed.
package ann

import (
	"math"
	"math/rand"
	"runtime"
	"sort"
)

// lloydIters bounds the k-means Lloyd iterations of a build; iteration
// stops early once no assignment changes.
const lloydIters = 12

// Index is an IVF index: K centroids over the item vectors, each item
// assigned to exactly one centroid's posting list. Items are held in
// ascending-id order together with their exact vectors, so candidate
// re-ranking needs no table access.
type Index struct {
	dim           int
	seed          int64
	defaultNProbe int
	centroids     [][]float64
	items         []int64     // ascending
	vecs          [][]float64 // parallel to items
	assign        []int32     // item position → centroid
	lists         [][]int32   // centroid → item positions, ascending
	pos           map[int64]int32
}

// Build clusters the given item vectors into an IVF index of ⌈√n⌉
// centroids whose default probe width is a quarter of them, rounded up,
// which keeps recall@10 above 0.9 on latent-factor workloads while
// skipping most of the item universe. items must be ascending and every
// id present in vecs with vectors of equal length. seed fixes the k-means
// initialization; the pool is sized from GOMAXPROCS, and the index is
// bit-identical at any size. A nil or empty input yields an index with
// zero centroids, which callers treat as "no index".
func Build(items []int64, vecs map[int64][]float64, seed int64) *Index {
	k := int(math.Ceil(math.Sqrt(float64(len(items)))))
	return build(items, vecs, seed, k, runtime.GOMAXPROCS(0))
}

// build is Build with K (1 ≤ K ≤ n) and the worker count given.
func build(items []int64, vecs map[int64][]float64, seed int64, k, workers int) *Index {
	n := len(items)
	ix := &Index{seed: seed}
	if n == 0 {
		ix.pos = map[int64]int32{}
		return ix
	}
	ix.items = append([]int64(nil), items...)
	ix.vecs = make([][]float64, n)
	ix.pos = make(map[int64]int32, n)
	for p, id := range ix.items {
		ix.vecs[p] = vecs[id]
		ix.pos[id] = int32(p)
	}
	ix.dim = len(ix.vecs[0])

	ix.centroids, ix.assign = kmeans(ix.vecs, k, lloydIters, workers, seed)
	ix.buildLists()
	ix.defaultNProbe = (k + 3) / 4
	return ix
}

// buildLists derives the posting lists from the assignment vector. Items
// are scanned in ascending order, so every list is ascending too.
func (ix *Index) buildLists() {
	ix.lists = make([][]int32, len(ix.centroids))
	for p := range ix.items {
		c := ix.assign[p]
		ix.lists[c] = append(ix.lists[c], int32(p))
	}
}

// Dim returns the vector dimensionality.
func (ix *Index) Dim() int { return ix.dim }

// Seed returns the build seed.
func (ix *Index) Seed() int64 { return ix.seed }

// NumCentroids returns K, the posting-list count.
func (ix *Index) NumCentroids() int { return len(ix.centroids) }

// NumItems returns the indexed item count.
func (ix *Index) NumItems() int { return len(ix.items) }

// DefaultNProbe returns the index's default probe width.
func (ix *Index) DefaultNProbe() int { return ix.defaultNProbe }

// Items returns the indexed item ids, ascending. Callers must not mutate.
func (ix *Index) Items() []int64 { return ix.items }

// Vector returns the exact stored vector for an item, or nil when the item
// is not indexed. Callers must not mutate.
func (ix *Index) Vector(item int64) []float64 {
	p, ok := ix.pos[item]
	if !ok {
		return nil
	}
	return ix.vecs[p]
}

// At returns the item id and exact vector at a candidate position.
func (ix *Index) At(pos int32) (int64, []float64) {
	return ix.items[pos], ix.vecs[pos]
}

// ProbeOrder ranks every centroid by dot product with the query vector,
// descending, ties broken by ascending centroid index — the deterministic
// probe schedule for one query.
func (ix *Index) ProbeOrder(q []float64) []int32 {
	k := len(ix.centroids)
	scores := make([]float64, k)
	for c, cent := range ix.centroids {
		scores[c] = dot(q, cent)
	}
	order := make([]int32, k)
	for c := range order {
		order[c] = int32(c)
	}
	sort.Slice(order, func(a, b int) bool {
		ca, cb := order[a], order[b]
		if scores[ca] != scores[cb] {
			return scores[ca] > scores[cb]
		}
		return ca < cb
	})
	return order
}

// Candidates gathers the item positions of the first nprobe posting lists
// of a probe order, ascending. Every item lives in exactly one list, so
// the result is duplicate-free; at nprobe = NumCentroids it is exactly
// [0, NumItems).
func (ix *Index) Candidates(order []int32, nprobe int) []int32 {
	if nprobe > len(order) {
		nprobe = len(order)
	}
	total := 0
	for _, c := range order[:nprobe] {
		total += len(ix.lists[c])
	}
	out := make([]int32, 0, total)
	for _, c := range order[:nprobe] {
		out = append(out, ix.lists[c]...)
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

// dot returns the inner product of two equal-length vectors, summed in
// ascending dimension order.
func dot(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// kmeans runs Lloyd's algorithm with deterministic seeded initialization
// and the repo's bit-identical parallel schedule: the assignment step
// partitions items into contiguous chunks (each slot written by one
// worker), and the update step partitions centroids into contiguous chunks
// with every owner walking the items once, in ascending order, and adding
// only those assigned to its own centroids, so the float sums form in the
// same order at any worker count.
func kmeans(vecs [][]float64, k, iters, workers int, seed int64) ([][]float64, []int32) {
	n := len(vecs)
	dim := len(vecs[0])

	// Seeded init: k distinct item positions drawn by a fixed-seed
	// permutation, sorted so the centroid numbering is stable.
	rng := rand.New(rand.NewSource(MixSeed(seed, int64(n), int64(k))))
	picks := rng.Perm(n)[:k]
	sort.Ints(picks)
	centroids := make([][]float64, k)
	for c, p := range picks {
		centroids[c] = append([]float64(nil), vecs[p]...)
	}

	assign := make([]int32, n)
	for i := range assign {
		assign[i] = -1
	}
	changed := make([]int, workers)
	sums := make([]float64, k*dim) // row c: centroid c's running sum
	counts := make([]int, k)
	for it := 0; it < iters; it++ {
		// Assignment: nearest centroid. Chunk-disjoint writes.
		RunChunks(workers, n, func(w, lo, hi int) {
			for i := lo; i < hi; i++ {
				if best := nearest(vecs[i], centroids); assign[i] != best {
					assign[i] = best
					changed[w]++
				}
			}
		})
		moved := 0
		for w := range changed {
			moved += changed[w]
			changed[w] = 0
		}
		if moved == 0 {
			break
		}
		// Update: each worker owns a contiguous range of centroids and walks
		// every item once, in ascending order, adding those assigned to its
		// own — one owner per accumulator, fixed summation order.
		RunChunks(workers, k, func(_, lo, hi int) {
			clear(sums[lo*dim : hi*dim])
			clear(counts[lo:hi])
			for i, c := range assign {
				if int(c) < lo || int(c) >= hi {
					continue
				}
				row := sums[int(c)*dim : (int(c)+1)*dim]
				for d, x := range vecs[i] {
					row[d] += x
				}
				counts[c]++
			}
			for c := lo; c < hi; c++ {
				if counts[c] == 0 {
					continue // empty cluster keeps its previous centroid
				}
				inv := 1 / float64(counts[c])
				for d, x := range sums[c*dim : (c+1)*dim] {
					centroids[c][d] = x * inv
				}
			}
		})
	}
	return centroids, assign
}

// nearest returns the position of v's nearest centroid by squared
// Euclidean distance, ties to the lower position. Every distance is summed
// in ascending dimension order, with sqDist's bits; four centroids are
// summed side by side, so the four additions per dimension do not wait on
// one another the way the terms of one sum do.
func nearest(v []float64, centroids [][]float64) int32 {
	best, bestD := int32(0), math.Inf(1)
	c := 0
	for ; c+4 <= len(centroids); c += 4 {
		c0, c1, c2, c3 := centroids[c][:len(v)], centroids[c+1][:len(v)], centroids[c+2][:len(v)], centroids[c+3][:len(v)]
		var d0, d1, d2, d3 float64
		for i, x := range v {
			t0, t1, t2, t3 := x-c0[i], x-c1[i], x-c2[i], x-c3[i]
			d0 += t0 * t0
			d1 += t1 * t1
			d2 += t2 * t2
			d3 += t3 * t3
		}
		for j, d := range [4]float64{d0, d1, d2, d3} {
			if d < bestD {
				best, bestD = int32(c+j), d
			}
		}
	}
	for ; c < len(centroids); c++ {
		if d := sqDist(v, centroids[c]); d < bestD {
			best, bestD = int32(c), d
		}
	}
	return best
}

func sqDist(a, b []float64) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}
