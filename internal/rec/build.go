package rec

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	randv2 "math/rand/v2"
	"runtime"
	"slices"

	"recdb/internal/ann"
)

// Neighbor is one entry of a similarity list: a neighboring entity (item or
// user) and its similarity score to the list's owner.
type Neighbor struct {
	ID  int64
	Sim float64
}

// BuildOptions tunes model construction.
type BuildOptions struct {
	// SVD hyperparameters (used only by the SVD algorithm).
	SVDFactors int     // latent factor count (default 10)
	SVDEpochs  int     // SGD passes over the ratings (default 20)
	SVDRate    float64 // learning rate (default 0.01)
	SVDLambda  float64 // L2 regularization λ from Equation 3 (default 0.05)
	SVDSeed    int64   // deterministic initialization seed
}

func (o BuildOptions) withDefaults() BuildOptions {
	if o.SVDFactors <= 0 {
		o.SVDFactors = 10
	}
	if o.SVDEpochs <= 0 {
		o.SVDEpochs = 20
	}
	if o.SVDRate <= 0 {
		o.SVDRate = 0.01
	}
	if o.SVDLambda <= 0 {
		o.SVDLambda = 0.05
	}
	return o
}

// ratingsIndex is a model's view of its input ratings, a repeated (user,
// item) reduced to its last value, held twice as ascending (id, value)
// runs: by user, each run ascending in item, and by item, each ascending in
// user. A run is []Neighbor, the shape a similarity list has too; the
// store serves the uservector and itemvector relations from these runs.
type ratingsIndex struct {
	users, items   []int64
	byUser, byItem runSet // run p is users[p]'s, or items[p]'s
	n              int
}

// runSet holds the runs of one key side back to back (CSR): run p is
// rows[off[p]:off[p+1]], and at[x] is the position of rows[x].ID among
// the other side's ids — the column neighborhoodLists accumulates in.
type runSet struct {
	off  []int
	rows []Neighbor
	at   []int32
}

// built reports whether the set holds runs: the zero runSet is the
// similarity lists of a model that has none.
func (s runSet) built() bool { return s.off != nil }

// run returns run p, clipped so that an append copies it.
func (s runSet) run(p int) []Neighbor { return s.rows[s.off[p]:s.off[p+1]:s.off[p+1]] }

// ats returns the at column of run p, clipped as run.
func (s runSet) ats(p int) []int32 { return s.at[s.off[p]:s.off[p+1]:s.off[p+1]] }

// find returns key's run, keys being the side's ids; nil when key is not
// one of them.
func (s runSet) find(keys []int64, key int64) []Neighbor {
	if p, ok := slices.BinarySearch(keys, key); ok {
		return s.run(p)
	}
	return nil
}

func indexRatings(ratings []Rating) *ratingsIndex {
	// Sorted by (user, item, input position): a repeated pair keeps its
	// input order, so the last of its ratings is the one kept.
	kept := make([]placedRating, len(ratings))
	for x, r := range ratings {
		kept[x] = placedRating{r, x}
	}
	slices.SortFunc(kept, func(a, b placedRating) int {
		return cmp.Or(cmp.Compare(a.User, b.User), cmp.Compare(a.Item, b.Item), cmp.Compare(a.at, b.at))
	})
	// The distinct items are collected through a set and only they are
	// sorted, not every rating's item.
	ix := &ratingsIndex{}
	seen := make(map[int64]struct{})
	n := 0
	for _, r := range kept {
		if n > 0 && kept[n-1].User == r.User && kept[n-1].Item == r.Item {
			kept[n-1].Value = r.Value
			continue
		}
		if n == 0 || kept[n-1].User != r.User {
			ix.users = append(ix.users, r.User)
		}
		if _, ok := seen[r.Item]; !ok {
			seen[r.Item] = struct{}{}
			ix.items = append(ix.items, r.Item)
		}
		kept[n] = r
		n++
	}
	kept = kept[:n]
	slices.Sort(ix.items)
	ix.items = slices.Clip(ix.items)
	ix.n = n

	// By user, in kept's order; by item, placed walking the users in
	// ascending order, so each item's run comes out ascending in user.
	itemAt := newPosTable(ix.items)
	ix.byUser = runSet{off: make([]int, len(ix.users)+1), rows: make([]Neighbor, n), at: make([]int32, n)}
	ix.byItem = runSet{off: make([]int, len(ix.items)+1), rows: make([]Neighbor, n), at: make([]int32, n)}
	pu := 0
	for x, r := range kept {
		if ix.users[pu] != r.User {
			pu++
		}
		pi, _ := itemAt.lookup(r.Item)
		ix.byUser.rows[x], ix.byUser.at[x] = Neighbor{ID: r.Item, Sim: r.Value}, pi
		ix.byUser.off[pu+1] = x + 1
		ix.byItem.off[pi+1]++
	}
	for pi := range ix.items {
		ix.byItem.off[pi+1] += ix.byItem.off[pi]
	}
	fill := slices.Clone(ix.byItem.off[:len(ix.items)])
	for pu, u := range ix.users {
		for x := ix.byUser.off[pu]; x < ix.byUser.off[pu+1]; x++ {
			pi := ix.byUser.at[x]
			ix.byItem.rows[fill[pi]] = Neighbor{ID: u, Sim: ix.byUser.rows[x].Sim}
			ix.byItem.at[fill[pi]] = int32(pu)
			fill[pi]++
		}
	}
	return ix
}

// placedRating is a rating and its position in indexRatings' input.
type placedRating struct {
	Rating
	at int
}

// userRun returns user's ratings, ascending in item.
func (ix *ratingsIndex) userRun(user int64) []Neighbor { return ix.byUser.find(ix.users, user) }

// userRunAt returns user's ratings, ascending in item, and the positions
// of their items in items; nil, nil for a user the index does not hold.
func (ix *ratingsIndex) userRunAt(user int64) ([]Neighbor, []int32) {
	if p, ok := slices.BinarySearch(ix.users, user); ok {
		return ix.byUser.run(p), ix.byUser.ats(p)
	}
	return nil, nil
}

// itemRun returns item's ratings, ascending in user.
func (ix *ratingsIndex) itemRun(item int64) []Neighbor { return ix.byItem.find(ix.items, item) }

// ValueOf returns the value run holds for id, if any; run is ascending in
// id, as every run is: a similarity list, or a user's or an item's
// ratings.
func ValueOf(run []Neighbor, id int64) (float64, bool) {
	x, ok := slices.BinarySearchFunc(run, id, func(n Neighbor, id int64) int { return cmp.Compare(n.ID, id) })
	if !ok {
		return 0, false
	}
	return run[x].Sim, true
}

// ---- Neighborhood models (ItemCosCF / ItemPearCF / UserCosCF / UserPearCF) ----

// neighborhoodLists computes the similarity lists for a neighborhood
// algorithm (Step I of §II; Equation 1 for cosine), one run per entity
// (item for item-based, user for user-based) in the entities' ascending
// order, each run in ascending id with its neighbours' positions in the
// at column. For Pearson variants the vectors are mean-centered per entity
// before the cosine, the classic adjusted formulation. Every list is
// whole, as in the paper, so the item lists are their own transpose (see
// Scorer).
//
// The lists are accumulated row by row (Gustavson's sparse product): the
// entity's row of the similarity matrix is the sum, over its dimensions in
// ascending order, of its value there times each co-occurring entity's, so
// one pass over the entity's dimensions fills a dense accumulator with
// every pair's dot product, formed in ascending dimension order, and the
// touched positions, in ascending order, are the list in ascending id
// (positions follow the sorted ids). They are put in order by sorting
// them or, when a row touches so many of the ne entities that sorting
// costs more, by walking the accumulator's marks. Sorting t positions
// costs about three times as much per t·log₂t step as the walk costs per
// mark, so the marks are walked once 3·t·log₂t ≥ ne. The entities are
// split into one contiguous range per worker; each list is owned by the
// worker that owns its entity and is computed in full by it, so the model
// is bit-identical at any worker count. The lists share one array, sized
// by a bound on each list taken before they are computed, so a build
// makes one allocation for its lists rather than one per entity; what
// the bounds over-reserve stays allocated with the model.
func neighborhoodLists(ix *ratingsIndex, algo Algorithm, workers int) runSet {
	// For item-based models the "entities" are items and the shared
	// dimension is users; user-based swaps the roles. The index holds the
	// ratings as CSR both ways: by dimension (dimOff/dimEnt: for each
	// dimension, the ascending positions of the entities on it) and by
	// entity (entOff/entDim: for each entity, its ascending dimension
	// positions). Centering writes the values, so the kernel takes copies
	// of them (dimVal, entVal).
	entities, byEnt, byDim := ix.items, ix.byItem, ix.byUser
	if !algo.ItemBased() {
		entities, byEnt, byDim = ix.users, ix.byUser, ix.byItem
	}
	ne := len(entities)
	dimOff, dimEnt, dimVal := byDim.off, byDim.at, values(byDim.rows)
	entOff, entDim, entVal := byEnt.off, byEnt.at, values(byEnt.rows)

	// Per-entity mean (Pearson only) and vector norm, summed in ascending
	// dimension order; then both copies of the values are centered. The
	// same pass bounds each entity's list: it holds at most every other
	// entity, and at most the others on each of its dimensions.
	pearson := algo.Pearson()
	center := make([]float64, ne)
	norms := make([]float64, ne)
	slot := make([]int, ne+1) // slot[pe+1]: the bound on entity pe's list
	ann.RunChunks(workers, ne, func(_, lo, hi int) {
		for pe := lo; pe < hi; pe++ {
			vals := entVal[entOff[pe]:entOff[pe+1]]
			if pearson {
				var sum float64
				for _, v := range vals {
					sum += v
				}
				center[pe] = sum / float64(len(vals))
			}
			var s float64
			for x := range vals {
				vals[x] -= center[pe]
				s += vals[x] * vals[x]
			}
			norms[pe] = math.Sqrt(s)
			bound := 0
			for _, pd := range entDim[entOff[pe]:entOff[pe+1]] {
				bound += dimOff[pd+1] - dimOff[pd] - 1
			}
			slot[pe+1] = min(bound, ne-1)
		}
	})
	if pearson {
		for x, pe := range dimEnt {
			dimVal[x] -= center[pe]
		}
	}
	for pe := range ne {
		slot[pe+1] += slot[pe]
	}

	// Row-wise accumulation, one contiguous range of entities per worker.
	// dots is the worker's dense accumulator over entity positions and
	// touched the positions it holds a sum for, so clearing it costs the
	// list's length, not ne. Every list goes into one array: a worker
	// writes its range's lists back to back from the slot of the range's
	// first entity, which keeps them inside the range's slots, and
	// records where each list starts and how long it is.
	rows, at := make([]Neighbor, slot[ne]), make([]int32, slot[ne])
	lens := make([]int, ne)
	ann.RunChunks(workers, ne, func(_, lo, hi int) {
		dots := make([]float64, ne)
		in := make([]bool, ne)
		var touched []int32
		end := slot[lo]
		for pe := lo; pe < hi; pe++ {
			touched = touched[:0]
			for x := entOff[pe]; x < entOff[pe+1]; x++ {
				pd, va := entDim[x], entVal[x]
				vseg := dimVal[dimOff[pd]:dimOff[pd+1]]
				for y, pb := range dimEnt[dimOff[pd]:dimOff[pd+1]] {
					if pb == int32(pe) {
						continue
					}
					if !in[pb] {
						in[pb] = true
						touched = append(touched, pb)
					}
					dots[pb] += va * vseg[y]
				}
			}
			// Ascending positions give the list in id order: the marks over
			// [0, ne) are walked when that costs less than sorting the t
			// touched positions.
			if t := len(touched); 3*t*bits.Len(uint(t)) >= ne {
				touched = touched[:0]
				for pb, marked := range in {
					if marked {
						touched = append(touched, int32(pb))
					}
				}
			} else {
				slices.Sort(touched)
			}
			start := end
			for _, pb := range touched {
				dot := dots[pb]
				dots[pb], in[pb] = 0, false
				na, nb := norms[pe], norms[pb]
				if na == 0 || nb == 0 || dot == 0 {
					continue
				}
				rows[end], at[end] = Neighbor{ID: entities[pb], Sim: dot / (na * nb)}, pb
				end++
			}
			slot[pe], lens[pe] = start, end-start
		}
	})

	// Each range after the first moves down to where the range before it
	// ends, which makes slot the lists' offsets.
	n := 0
	for pe, l := range lens {
		if from := slot[pe]; from != n {
			copy(rows[n:n+l], rows[from:from+l])
			copy(at[n:n+l], at[from:from+l])
		}
		slot[pe] = n
		n += l
	}
	slot[ne] = n
	return runSet{off: slot, rows: slices.Clip(rows[:n]), at: slices.Clip(at[:n])}
}

// values returns a copy of the values of rows.
func values(rows []Neighbor) []float64 {
	out := make([]float64, len(rows))
	for x, r := range rows {
		out[x] = r.Sim
	}
	return out
}

// PredictWeighted evaluates Equation 2 given a similarity list and the
// known ratings keyed by the same id space as the list, both runs ascending
// in id: one merge of the two, adding the matched terms in list order. ok
// is false when the intersection is empty (the operators then emit 0).
func PredictWeighted(neighbors, known []Neighbor) (float64, bool) {
	var sum weightedSum
	for x, y := 0, 0; x < len(neighbors) && y < len(known); {
		switch a, b := neighbors[x].ID, known[y].ID; {
		case a < b:
			x++
		case a > b:
			y++
		default:
			sum.add(neighbors[x].Sim, known[y].Sim)
			x++
			y++
		}
	}
	return sum.score()
}

// weightedSum accumulates Equation 2 one matched neighbour at a time. Every
// scoring path adds the terms in one order, ascending neighbour id — a
// list merged with the known ratings (PredictWeighted), and the
// user-driven side walking the user's ratings in ascending order — so all
// of them add the same terms in the same order to the same bits.
type weightedSum struct{ num, den float64 }

func (w *weightedSum) add(sim, rating float64) {
	w.num += sim * rating
	w.den += math.Abs(sim)
}

func (w weightedSum) score() (float64, bool) {
	if w.den == 0 {
		return 0, false
	}
	return w.num / w.den, true
}

// ---- Matrix factorization (SVD) ----

// trainSVD learns the matrix-factorization model of §IV-A3 — one latent
// factor vector per user and per item, whose dot product is the prediction
// — by stochastic gradient descent on the regularized squared error of
// Equation 3, and builds the inverted-file ANN index over the item factors
// so RECOMMEND top-k can probe instead of scanning every item.
//
// The factors live in two dense slabs, one per side, vector p at
// [p·k, (p+1)·k) of its side's slab; the model's userVecs and itemVecs are
// views into them, clipped so that an append copies. Training uses a
// stratified parallel schedule (Gemulla et al., KDD 2011): users and items
// are each split into svdStrata contiguous position ranges, and within one
// rotation the worker pool processes blocks that are pairwise disjoint in
// both users and items, so concurrent updates never touch the same factor
// vector, nor, the ranges being contiguous, the same stretch of a slab.
// The schedule — block order, per-block visit order, and RNG streams — is
// fixed by SVDSeed alone, so the trained factors are bit-identical at any
// worker count (one worker runs the same schedule serially).
func trainSVD(ix *ratingsIndex, opts BuildOptions, workers int) (userVecs, itemVecs map[int64][]float64, ivf *ann.Index) {
	k := opts.SVDFactors
	// The initial factors, users' then items', are drawn from one source
	// seeded with SVDSeed.
	rng := rand.New(rand.NewSource(opts.SVDSeed))
	userSlab := make([]float64, len(ix.users)*k)
	itemSlab := make([]float64, len(ix.items)*k)
	for _, slab := range [][]float64{userSlab, itemSlab} {
		for f := range slab {
			slab[f] = (rng.Float64() - 0.5) * 0.1
		}
	}
	trainStratified(userSlab, itemSlab, ix, opts, workers)
	userVecs, itemVecs = slabViews(ix.users, userSlab, k), slabViews(ix.items, itemSlab, k)
	// The IVF index over the trained item factors. The build is a
	// deterministic function of (factors, seed) at any worker count, so
	// the index is bit-identical run to run, as the factors are.
	ivf = ann.Build(ix.items, itemVecs, opts.SVDSeed)
	return userVecs, itemVecs, ivf
}

// slabViews maps ids[p] to vector p of slab, clipped so that an append
// copies it.
func slabViews(ids []int64, slab []float64, k int) map[int64][]float64 {
	views := make(map[int64][]float64, len(ids))
	for p, id := range ids {
		views[id] = slab[p*k : (p+1)*k : (p+1)*k]
	}
	return views
}

// svdStrata is the stratification degree S of the DSGD schedule: ratings
// are bucketed into an S×S grid of (user stratum, item stratum) blocks,
// position p of n being in stratum p·S/n.
const svdStrata = 8

// svdStep is one rating of a DSGD block: the positions of its user and
// item, which index the factor slabs, and its value.
type svdStep struct {
	pu, pi int32
	value  float64
}

// trainStratified runs the deterministic DSGD schedule over the factor
// slabs: SVDEpochs epochs of svdStrata rotations; rotation rot processes
// the blocks (us, (us+rot) mod S) for every user stratum us, which are
// pairwise disjoint in users and items and therefore safe to run
// concurrently. Each block shuffles and applies its ratings under a PCG
// seeded from (SVDSeed, epoch, rot, us), so the result does not depend on
// how blocks are assigned to workers; each worker holds one PCG and
// re-seeds it per block, which costs O(1) and allocates nothing. The
// workers are started once for the whole schedule and meet at a barrier
// after every rotation, so a build starts workers goroutines, not one per
// rotation per worker.
func trainStratified(userSlab, itemSlab []float64, ix *ratingsIndex, opts BuildOptions, workers int) {
	k, lr, lam := opts.SVDFactors, opts.SVDRate, opts.SVDLambda
	blocks := svdBlocks(ix)
	workers = min(workers, svdStrata)
	rotated := ann.NewBarrier(workers)
	ann.RunWorkers(workers, func(w int) {
		var pcg randv2.PCG
		for epoch := range opts.SVDEpochs {
			for rot := range svdStrata {
				for us := w; us < svdStrata; us += workers {
					block := blocks[us*svdStrata+(us+rot)%svdStrata]
					if len(block) == 0 {
						continue
					}
					pcg.Seed(uint64(ann.MixSeed(opts.SVDSeed, int64(epoch), int64(rot), int64(us))), 0)
					// Fisher–Yates; the high word of a draw times x+1 is a
					// draw in [0, x], biased by under (x+1)/2⁶⁴.
					for x := len(block) - 1; x > 0; x-- {
						hi, _ := bits.Mul64(pcg.Uint64(), uint64(x+1))
						block[x], block[hi] = block[hi], block[x]
					}
					for _, s := range block {
						p := userSlab[int(s.pu)*k : int(s.pu)*k+k]
						q := itemSlab[int(s.pi)*k : int(s.pi)*k+k]
						err := s.value - Dot(p, q)
						for f := range p {
							pf, qf := p[f], q[f]
							p[f] += lr * (err*qf - lam*pf)
							q[f] += lr * (err*pf - lam*qf)
						}
					}
				}
				rotated.Wait()
			}
		}
	})
}

// svdBlocks buckets the ratings into the S×S grid of DSGD blocks: block
// us·S+is holds the ratings of user stratum us and item stratum is, in
// (user, item) order.
func svdBlocks(ix *ratingsIndex) [][]svdStep {
	nu, ni := len(ix.users), len(ix.items)
	blocks := make([][]svdStep, svdStrata*svdStrata)
	for pu := range nu {
		us := pu * svdStrata / nu
		for x := ix.byUser.off[pu]; x < ix.byUser.off[pu+1]; x++ {
			pi := ix.byUser.at[x]
			b := us*svdStrata + int(pi)*svdStrata/ni
			blocks[b] = append(blocks[b], svdStep{pu: int32(pu), pi: pi, value: ix.byUser.rows[x].Sim})
		}
	}
	return blocks
}

// Dot returns the inner product of two equal-length vectors.
func Dot(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// Build builds the model of algo over ratings (Step I of §II): the ratings
// index every model keeps, and the algorithm's own structures — the
// similarity lists, the factor vectors and their IVF index, or the
// popularity scores. The store it returns is the model; nothing writes it
// afterwards. The family builders it calls take opts with its defaults
// applied and a pool sized from GOMAXPROCS; every one builds a
// bit-identical model at any pool size.
func Build(ratings []Rating, algo Algorithm, opts BuildOptions) (*ModelStore, error) {
	return build(ratings, algo, opts, runtime.GOMAXPROCS(0))
}

// build is Build with the worker count given.
func build(ratings []Rating, algo Algorithm, opts BuildOptions, workers int) (*ModelStore, error) {
	opts = opts.withDefaults()
	s := &ModelStore{Algo: algo, ratings: indexRatings(ratings)}
	switch {
	case algo.ItemBased():
		s.itemLists = neighborhoodLists(s.ratings, algo, workers)
	case algo.UserBased():
		s.userLists = neighborhoodLists(s.ratings, algo, workers)
	case algo == SVD:
		var ivf *ann.Index
		s.userVecs, s.itemVecs, ivf = trainSVD(s.ratings, opts, workers)
		if ivf.NumCentroids() > 0 {
			s.ivf = ivf
		}
	case algo == Popularity:
		s.scores = popularityScores(s.ratings)
	default:
		return nil, fmt.Errorf("rec: cannot build %v", algo)
	}
	s.itemPos = newPosTable(s.ratings.items)
	return s, nil
}
