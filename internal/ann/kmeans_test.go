package ann

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// lloyd is the reference k-means: the same seeded initialization and
// iteration schedule as kmeans, serial and plain — one distance summed at a
// time, and every centroid rescans all items for the ones assigned to it.
func lloyd(vecs [][]float64, k, iters int, seed int64) ([][]float64, []int32) {
	n, dim := len(vecs), len(vecs[0])
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
	for it := 0; it < iters; it++ {
		moved := 0
		for i, v := range vecs {
			best, bestD := int32(0), math.Inf(1)
			for c := range centroids {
				var d float64
				for x := range v {
					d += (v[x] - centroids[c][x]) * (v[x] - centroids[c][x])
				}
				if d < bestD {
					best, bestD = int32(c), d
				}
			}
			if assign[i] != best {
				assign[i] = best
				moved++
			}
		}
		if moved == 0 {
			break
		}
		for c := 0; c < k; c++ {
			sums := make([]float64, dim)
			count := 0
			for i, v := range vecs {
				if int(assign[i]) != c {
					continue
				}
				for d := range sums {
					sums[d] += v[d]
				}
				count++
			}
			if count == 0 {
				continue
			}
			inv := 1 / float64(count)
			for d := range sums {
				centroids[c][d] = sums[d] * inv
			}
		}
	}
	return centroids, assign
}

// TestKMeansMatchesLloyd: summing four distances side by side and walking
// the items once per worker change nothing — every centroid coordinate has
// the reference's float64 bits and every item its centroid — across shapes
// (including duplicate points, which tie, more centroids than distinct
// points, and centroid counts that are and are not multiples of four) and
// worker counts.
func TestKMeansMatchesLloyd(t *testing.T) {
	dup := make([][]float64, 60)
	for i := range dup {
		dup[i] = []float64{float64(i % 4), 1}
	}
	shapes := []struct {
		name  string
		vecs  [][]float64
		k     int
		iters int
	}{
		{"dup", dup, 9, 12},
		{"one", dup[:1], 1, 12},
	}
	for _, s := range []struct{ n, dim, k int }{{200, 10, 15}, {500, 4, 23}, {80, 16, 80}, {1000, 10, 32}} {
		items, byID := synthFactors(s.n, s.dim, int64(s.n))
		vecs := make([][]float64, len(items))
		for p, id := range items {
			vecs[p] = byID[id]
		}
		shapes = append(shapes, struct {
			name  string
			vecs  [][]float64
			k     int
			iters int
		}{fmt.Sprintf("n%d/d%d/k%d", s.n, s.dim, s.k), vecs, s.k, 12})
	}
	for _, s := range shapes {
		for _, seed := range []int64{1, 7} {
			wantC, wantA := lloyd(s.vecs, s.k, s.iters, seed)
			for _, workers := range []int{1, 2, 3, 4} {
				gotC, gotA := kmeans(s.vecs, s.k, s.iters, workers, seed)
				for i := range wantA {
					if gotA[i] != wantA[i] {
						t.Fatalf("%s seed %d workers=%d: item %d in centroid %d, reference %d", s.name, seed, workers, i, gotA[i], wantA[i])
					}
				}
				for c := range wantC {
					for d := range wantC[c] {
						if math.Float64bits(gotC[c][d]) != math.Float64bits(wantC[c][d]) {
							t.Fatalf("%s seed %d workers=%d: centroid %d[%d] = %v, reference %v", s.name, seed, workers, c, d, gotC[c][d], wantC[c][d])
						}
					}
				}
			}
		}
	}
}
