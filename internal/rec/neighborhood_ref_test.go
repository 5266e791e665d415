package rec

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"

	"recdb/internal/ann"
)

// pairNeighborhood is the reference similarity-list kernel: the pair-map
// formulation neighborhoodLists used before it accumulated row by row,
// kept whole — its own mean/norm pass and CSR — so the differential below
// compares two independent computations. Worker w accumulates every pair
// whose lower entity position is ≡ w mod workers into a map keyed by the
// pair, summing over the shared dimensions in ascending order; a merge then
// hands each pair's one similarity to both its entities' lists, which are
// then put in id order.
func pairNeighborhood(ratings []Rating, algo Algorithm, workers int) map[int64][]Neighbor {
	byUser, byItem, users, items := refIndex(ratings)
	var vectors, shared map[int64]map[int64]float64
	var entities, dims []int64
	if algo.ItemBased() {
		vectors, entities = byItem, items
		shared, dims = byUser, users
	} else {
		vectors, entities = byUser, users
		shared, dims = byItem, items
	}
	ne := len(entities)
	pos := make(map[int64]int32, ne)
	for p, e := range entities {
		pos[e] = int32(p)
	}

	pearson := algo.Pearson()
	center := make([]float64, ne)
	norms := make([]float64, ne)
	for pe := 0; pe < ne; pe++ {
		vec := vectors[entities[pe]]
		var dimbuf []int64
		for d := range vec {
			dimbuf = append(dimbuf, d)
		}
		sort.Slice(dimbuf, func(i, j int) bool { return dimbuf[i] < dimbuf[j] })
		if pearson {
			var sum float64
			for _, d := range dimbuf {
				sum += vec[d]
			}
			center[pe] = sum / float64(len(dimbuf))
		}
		var s float64
		for _, d := range dimbuf {
			v := vec[d] - center[pe]
			s += v * v
		}
		norms[pe] = math.Sqrt(s)
	}

	nd := len(dims)
	offsets := make([]int, nd+1)
	for pd, d := range dims {
		offsets[pd+1] = offsets[pd] + len(shared[d])
	}
	dimPos := make([]int32, offsets[nd])
	dimVal := make([]float64, offsets[nd])
	for pd := 0; pd < nd; pd++ {
		row := shared[dims[pd]]
		seg := dimPos[offsets[pd]:offsets[pd+1]]
		x := 0
		for e := range row {
			seg[x] = pos[e]
			x++
		}
		sort.Slice(seg, func(i, j int) bool { return seg[i] < seg[j] })
		vseg := dimVal[offsets[pd]:offsets[pd+1]]
		for x, pe := range seg {
			vseg[x] = row[entities[pe]] - center[pe]
		}
	}

	shards := make([]map[uint64]float64, workers)
	ann.RunWorkers(workers, func(w int) {
		dots := make(map[uint64]float64)
		for pd := 0; pd < nd; pd++ {
			seg := dimPos[offsets[pd]:offsets[pd+1]]
			vseg := dimVal[offsets[pd]:offsets[pd+1]]
			for x := 0; x < len(seg); x++ {
				if int(seg[x])%workers != w {
					continue
				}
				vx := vseg[x]
				base := uint64(seg[x]) << 32
				for y := x + 1; y < len(seg); y++ {
					dots[base|uint64(seg[y])] += vx * vseg[y]
				}
			}
		}
		shards[w] = dots
	})

	lists := make([][]Neighbor, ne)
	for _, dots := range shards {
		for key, dot := range dots {
			pa, pb := int(key>>32), int(key&0xffffffff)
			na, nb := norms[pa], norms[pb]
			if na == 0 || nb == 0 || dot == 0 {
				continue
			}
			sim := dot / (na * nb)
			lists[pa] = append(lists[pa], Neighbor{ID: entities[pb], Sim: sim})
			lists[pb] = append(lists[pb], Neighbor{ID: entities[pa], Sim: sim})
		}
	}
	neighbors := make(map[int64][]Neighbor, ne)
	for pe, list := range lists {
		sort.Slice(list, func(i, j int) bool { return list[i].ID < list[j].ID })
		if len(list) > 0 {
			neighbors[entities[pe]] = list
		}
	}
	return neighbors
}

// refIndex is the reference's own view of the input, independent of
// indexRatings: user → item → rating and item → user → rating maps, a
// repeated (user, item) keeping its last rating, and the sorted user and
// item ids.
func refIndex(ratings []Rating) (byUser, byItem map[int64]map[int64]float64, users, items []int64) {
	byUser, byItem = map[int64]map[int64]float64{}, map[int64]map[int64]float64{}
	for _, r := range ratings {
		if byUser[r.User] == nil {
			byUser[r.User] = map[int64]float64{}
			users = append(users, r.User)
		}
		if byItem[r.Item] == nil {
			byItem[r.Item] = map[int64]float64{}
			items = append(items, r.Item)
		}
		byUser[r.User][r.Item], byItem[r.Item][r.User] = r.Value, r.Value
	}
	slices.Sort(users)
	slices.Sort(items)
	return byUser, byItem, users, items
}

// TestNeighborhoodMatchesPairReference: the row-wise kernel builds, bit
// for bit, the lists the pair-map kernel builds — every list, every id in
// order, every similarity's float64 bits — for all four neighbourhood
// algorithms and any worker count; and every model it builds is its own
// transpose, which the Scorer's user-driven side relies on.
func TestNeighborhoodMatchesPairReference(t *testing.T) {
	fixtures := []struct {
		name    string
		ratings func(Algorithm) []Rating
	}{
		{"bench", func(Algorithm) []Rating { return benchRatings(60, 120, 0.08) }},
		// The hub is an item for item-based models and a user otherwise.
		{"hub", func(algo Algorithm) []Rating { return hubRatings(algo.ItemBased()) }},
		// Fresh items, each rated once: ratings.mixed's growth between
		// rebuilds, where every rater's items gain the fresh ones.
		{"fresh", func(Algorithm) []Rating { return withFreshItems(benchRatings(30, 60, 0.1), 30, 400) }},
	}
	for _, fx := range fixtures {
		for _, algo := range []Algorithm{ItemCosCF, ItemPearCF, UserCosCF, UserPearCF} {
			ratings := fx.ratings(algo)
			want := pairNeighborhood(ratings, algo, 1)
			for _, workers := range []int{1, 2, 4} {
				name := fmt.Sprintf("%s/%v/workers=%d", fx.name, algo, workers)
				ix := indexRatings(ratings)
				ids := ix.items
				if !algo.ItemBased() {
					ids = ix.users
				}
				lists := listMap(ids, neighborhoodLists(ix, algo, workers))
				if len(lists) != len(want) {
					t.Fatalf("%s: %d lists, reference %d", name, len(lists), len(want))
				}
				for e, w := range want {
					if !slices.EqualFunc(lists[e], w, sameNeighbor) {
						t.Fatalf("%s: list of %d differs:\n got %v\nwant %v", name, e, lists[e], w)
					}
				}
				assertOwnTranspose(t, name, lists)
			}
		}
	}
}

// assertOwnTranspose fails unless j is in i's list exactly when i is in
// j's, with the same similarity bits both ways.
func assertOwnTranspose(t *testing.T, name string, lists map[int64][]Neighbor) {
	t.Helper()
	pairs := 0
	for i, list := range lists {
		for _, n := range list {
			back, ok := ValueOf(lists[n.ID], i)
			if !ok || math.Float64bits(back) != math.Float64bits(n.Sim) {
				t.Fatalf("%s: sim(%d, %d) = %v, but %d's list gives %v (present %v)", name, i, n.ID, n.Sim, n.ID, back, ok)
			}
			pairs++
		}
	}
	if pairs == 0 {
		t.Fatalf("%s: fixture built no pairs", name)
	}
}

// sameNeighbor compares two list entries bit for bit.
func sameNeighbor(a, b Neighbor) bool {
	return a.ID == b.ID && math.Float64bits(a.Sim) == math.Float64bits(b.Sim)
}
