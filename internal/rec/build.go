package rec

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
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
	// NeighborhoodSize truncates each similarity list to the top-N most
	// similar entries; 0 keeps the full list (the paper's default).
	NeighborhoodSize int
	// Workers bounds the worker pool used by the model-build kernels
	// (neighborhood similarity, SVD training, bulk prediction). 0 selects
	// runtime.NumCPU(); 1 is the serial path (no goroutines). Every kernel
	// produces a bit-identical model at any worker count.
	Workers int
	// SVD hyperparameters (used only by the SVD algorithm).
	SVDFactors int     // latent factor count (default 10)
	SVDEpochs  int     // SGD passes over the ratings (default 20)
	SVDRate    float64 // learning rate (default 0.01)
	SVDLambda  float64 // L2 regularization λ from Equation 3 (default 0.05)
	SVDSeed    int64   // deterministic initialization seed
	// ANNCentroids and ANNProbe tune the IVF index built over the trained
	// item factors (vector-native top-k). 0 selects the internal/ann
	// defaults (√n centroids, K/4 probe width); the index build shares
	// Workers and is deterministic under SVDSeed for a given factor set.
	ANNCentroids int
	ANNProbe     int
}

func (o BuildOptions) withDefaults() BuildOptions {
	o.Workers = ann.ResolveWorkers(o.Workers)
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

// Model is a built recommendation model: it predicts RecScore(u, i) per
// Step II of §II and knows which (user, item) pairs are already rated.
type Model interface {
	// Algorithm returns the algorithm that built the model.
	Algorithm() Algorithm
	// Predict estimates RecScore(u, i). ok is false when the model has no
	// basis for a prediction (the operators then emit 0, per Algorithm 1).
	Predict(user, item int64) (score float64, ok bool)
	// Seen returns the rating user gave item, if any.
	Seen(user, item int64) (float64, bool)
	// Users returns all user ids known to the model, ascending.
	Users() []int64
	// Items returns all item ids known to the model, ascending.
	Items() []int64
	// NumRatings returns the number of ratings the model was built from.
	NumRatings() int
	// Ratings returns the training ratings sorted by (user, item).
	Ratings() []Rating
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
// the other side's ids — the column BuildNeighborhood accumulates in.
type runSet struct {
	off  []int
	rows []Neighbor
	at   []int32
}

// run returns run p, clipped so that an append copies it.
func (s runSet) run(p int) []Neighbor { return s.rows[s.off[p]:s.off[p+1]:s.off[p+1]] }

// find returns key's run, keys being the side's ids; nil when key is not
// one of them.
func (s runSet) find(keys []int64, key int64) []Neighbor {
	if p, ok := slices.BinarySearch(keys, key); ok {
		return s.run(p)
	}
	return nil
}

func indexRatings(ratings []Rating) *ratingsIndex {
	// Sorted by (user, item), stably: a repeated pair keeps its input
	// order, so the last of its ratings is the one kept.
	kept := slices.Clone(ratings)
	slices.SortStableFunc(kept, func(a, b Rating) int {
		return cmp.Or(cmp.Compare(a.User, b.User), cmp.Compare(a.Item, b.Item))
	})
	ix := &ratingsIndex{}
	n := 0
	for _, r := range kept {
		if n > 0 && kept[n-1].User == r.User && kept[n-1].Item == r.Item {
			kept[n-1].Value = r.Value
			continue
		}
		if n == 0 || kept[n-1].User != r.User {
			ix.users = append(ix.users, r.User)
		}
		ix.items = append(ix.items, r.Item)
		kept[n] = r
		n++
	}
	kept = kept[:n]
	slices.Sort(ix.items)
	ix.items = slices.Clip(slices.Compact(ix.items))
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

// userRun returns user's ratings, ascending in item.
func (ix *ratingsIndex) userRun(user int64) []Neighbor { return ix.byUser.find(ix.users, user) }

// itemRun returns item's ratings, ascending in user.
func (ix *ratingsIndex) itemRun(item int64) []Neighbor { return ix.byItem.find(ix.items, item) }

// NumRatings implements Model.
func (ix *ratingsIndex) NumRatings() int { return ix.n }

// Users implements Model.
func (ix *ratingsIndex) Users() []int64 { return ix.users }

// Items implements Model.
func (ix *ratingsIndex) Items() []int64 { return ix.items }

// Seen implements Model.
func (ix *ratingsIndex) Seen(user, item int64) (float64, bool) {
	return ValueOf(ix.userRun(user), item)
}

// Ratings implements Model.
func (ix *ratingsIndex) Ratings() []Rating {
	out := make([]Rating, 0, ix.n)
	for p, u := range ix.users {
		for _, r := range ix.byUser.run(p) {
			out = append(out, Rating{User: u, Item: r.ID, Value: r.Sim})
		}
	}
	return out
}

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

// NeighborhoodModel is a similarity-list model: item-item or user-user.
type NeighborhoodModel struct {
	algo Algorithm
	*ratingsIndex
	// neighbors maps the entity id (item for item-based, user for
	// user-based) to its similarity list, in ascending id order.
	neighbors map[int64][]Neighbor
	// cut says NeighborhoodSize truncated at least one list. Until it
	// does, the lists are their own transpose: j is in i's list with
	// similarity s exactly when i is in j's with the same s, bit for bit.
	// BuildNeighborhood computes the pair (i, j) once from each side, and
	// the two sides form the same dot product — the same products, since
	// IEEE multiplication commutes, summed over the shared dimensions in
	// the same ascending order — and divide it by the same two norms, also
	// multiplied in swapped order. The Scorer's user-driven side relies on
	// this (ModelStore.symmetric).
	cut bool
}

// BuildNeighborhood computes the similarity lists for a neighborhood
// algorithm (Step I of §II; Equation 1 for cosine). For Pearson variants
// the vectors are mean-centered per entity before the cosine, the classic
// adjusted formulation.
//
// The lists are accumulated row by row (Gustavson's sparse product): the
// entity's row of the similarity matrix is the sum, over its dimensions in
// ascending order, of its value there times each co-occurring entity's, so
// one pass over the entity's dimensions fills a dense accumulator with
// every pair's dot product, formed in ascending dimension order, and the
// touched positions, sorted, are the list in ascending id (positions follow
// the sorted ids). A truncated list keeps its NeighborhoodSize strongest
// entries (strongerFirst), still in id order. The entities are split into
// one contiguous range per worker of opts.Workers; each list is owned by
// the worker that owns its entity and is computed in full by it, so the
// model is bit-identical at any worker count.
func BuildNeighborhood(ratings []Rating, algo Algorithm, opts BuildOptions) (*NeighborhoodModel, error) {
	if !algo.ItemBased() && !algo.UserBased() {
		return nil, fmt.Errorf("rec: %v is not a neighborhood algorithm", algo)
	}
	opts = opts.withDefaults()
	workers := opts.Workers
	ix := indexRatings(ratings)

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
	// dimension order; then both copies of the values are centered.
	pearson := algo.Pearson()
	center := make([]float64, ne)
	norms := make([]float64, ne)
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
		}
	})
	if pearson {
		for x, pe := range dimEnt {
			dimVal[x] -= center[pe]
		}
	}

	// Row-wise accumulation, one contiguous range of entities per worker.
	// dots is the worker's dense accumulator over entity positions and
	// touched the positions it holds a sum for, so clearing it costs the
	// list's length, not ne.
	lists := make([][]Neighbor, ne)
	cutBy := make([]bool, workers) // written by worker w only
	ann.RunChunks(workers, ne, func(w, lo, hi int) {
		dots := make([]float64, ne)
		in := make([]bool, ne)
		var touched []int32
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
			// Sorted positions give the list in id order. A list that may
			// be cut is ranked instead, and put in id order after the cut.
			mayCut := opts.NeighborhoodSize > 0 && len(touched) > opts.NeighborhoodSize
			if !mayCut {
				slices.Sort(touched)
			}
			list := make([]Neighbor, 0, len(touched))
			for _, pb := range touched {
				dot := dots[pb]
				dots[pb], in[pb] = 0, false
				na, nb := norms[pe], norms[pb]
				if na == 0 || nb == 0 || dot == 0 {
					continue
				}
				list = append(list, Neighbor{ID: entities[pb], Sim: dot / (na * nb)})
			}
			if mayCut {
				if len(list) > opts.NeighborhoodSize {
					slices.SortFunc(list, strongerFirst)
					list = list[:opts.NeighborhoodSize]
					cutBy[w] = true
				}
				slices.SortFunc(list, func(a, b Neighbor) int { return cmp.Compare(a.ID, b.ID) })
			}
			lists[pe] = list
		}
	})

	neighbors := make(map[int64][]Neighbor, ne)
	for pe, list := range lists {
		if len(list) > 0 {
			neighbors[entities[pe]] = list
		}
	}
	return &NeighborhoodModel{algo: algo, ratingsIndex: ix, neighbors: neighbors, cut: slices.Contains(cutBy, true)}, nil
}

// values returns a copy of the values of rows.
func values(rows []Neighbor) []float64 {
	out := make([]float64, len(rows))
	for x, r := range rows {
		out[x] = r.Sim
	}
	return out
}

// strongerFirst ranks a list's entries for truncation: descending |sim|,
// then ascending id. It is total over one list, whose ids are distinct.
func strongerFirst(a, b Neighbor) int {
	if sa, sb := math.Abs(a.Sim), math.Abs(b.Sim); sa != sb {
		if sa > sb {
			return -1
		}
		return 1
	}
	return cmp.Compare(a.ID, b.ID)
}

// Algorithm implements Model.
func (m *NeighborhoodModel) Algorithm() Algorithm { return m.algo }

// Neighbors returns the similarity list for an item (item-based) or user
// (user-based), in ascending id order.
func (m *NeighborhoodModel) Neighbors(id int64) []Neighbor { return m.neighbors[id] }

// Predict implements Model using Equation 2: the weighted average of the
// user's ratings over the intersection of the candidate's similarity list
// with the user's rated items (item-based), or of the neighbors' ratings
// for the candidate item (user-based).
func (m *NeighborhoodModel) Predict(user, item int64) (float64, bool) {
	if m.algo.ItemBased() {
		return PredictWeighted(m.neighbors[item], m.userRun(user))
	}
	return PredictWeighted(m.neighbors[user], m.itemRun(item))
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

// FactorModel is the matrix-factorization model of §IV-A3: one latent
// factor vector per user and per item; prediction is their dot product.
// IVF is the inverted-file ANN index over the item factors, built after
// training so RECOMMEND top-k can probe instead of scanning every item.
type FactorModel struct {
	*ratingsIndex
	UserFactors map[int64][]float64
	ItemFactors map[int64][]float64
	K           int
	IVF         *ann.Index
}

// TrainSVD learns the factor model by stochastic gradient descent on the
// regularized squared error of Equation 3.
//
// Training uses a stratified parallel schedule (Gemulla et al., KDD 2011):
// users and items are each split into svdStrata strata, and within one
// rotation the worker pool processes blocks that are pairwise disjoint in
// both users and items, so concurrent updates never touch the same factor
// vector. The schedule — block order, per-block visit order, and RNG
// streams — is fixed by SVDSeed alone, so the trained factors are
// bit-identical at any worker count (Workers: 1 runs the same schedule
// serially).
func TrainSVD(ratings []Rating, opts BuildOptions) (*FactorModel, error) {
	opts = opts.withDefaults()
	ix := indexRatings(ratings)
	k := opts.SVDFactors
	rng := rand.New(rand.NewSource(opts.SVDSeed))
	m := &FactorModel{
		ratingsIndex: ix,
		UserFactors:  make(map[int64][]float64, len(ix.users)),
		ItemFactors:  make(map[int64][]float64, len(ix.items)),
		K:            k,
	}
	initVec := func() []float64 {
		v := make([]float64, k)
		for i := range v {
			v[i] = (rng.Float64() - 0.5) * 0.1
		}
		return v
	}
	for _, u := range ix.users {
		m.UserFactors[u] = initVec()
	}
	for _, i := range ix.items {
		m.ItemFactors[i] = initVec()
	}
	trainStratified(m, ix, opts)
	// The IVF index over the trained item factors. The build is a
	// deterministic function of (factors, seed) at any worker count, so
	// the index is bit-identical run to run, as the factors are.
	m.IVF = ann.Build(ix.items, m.ItemFactors, ann.Options{
		Centroids: opts.ANNCentroids,
		NProbe:    opts.ANNProbe,
		Workers:   opts.Workers,
		Seed:      opts.SVDSeed,
	})
	return m, nil
}

// svdStrata is the stratification degree S of the DSGD schedule: ratings
// are bucketed into an S×S grid of (user stratum, item stratum) blocks.
const svdStrata = 8

// trainStratified runs the deterministic DSGD schedule: SVDEpochs epochs
// of svdStrata rotations; rotation rot processes the blocks
// (us, (us+rot) mod S) for every user stratum us, which are pairwise
// disjoint in users and items and therefore safe to run concurrently.
// Each block shuffles and applies its ratings under an RNG derived from
// (SVDSeed, epoch, rot, us), so the result does not depend on how blocks
// are assigned to workers.
func trainStratified(m *FactorModel, ix *ratingsIndex, opts BuildOptions) {
	k, lr, lam := m.K, opts.SVDRate, opts.SVDLambda
	// Block (user position mod S, item position mod S), each block's
	// ratings in (user, item) order.
	blocks := make([][]Rating, svdStrata*svdStrata)
	for pu, u := range ix.users {
		for x := ix.byUser.off[pu]; x < ix.byUser.off[pu+1]; x++ {
			b := pu%svdStrata*svdStrata + int(ix.byUser.at[x])%svdStrata
			r := ix.byUser.rows[x]
			blocks[b] = append(blocks[b], Rating{User: u, Item: r.ID, Value: r.Sim})
		}
	}
	workers := opts.Workers
	if workers > svdStrata {
		workers = svdStrata
	}
	for epoch := 0; epoch < opts.SVDEpochs; epoch++ {
		for rot := 0; rot < svdStrata; rot++ {
			ann.RunWorkers(workers, func(w int) {
				for us := w; us < svdStrata; us += workers {
					is := (us + rot) % svdStrata
					block := blocks[us*svdStrata+is]
					if len(block) == 0 {
						continue
					}
					rng := rand.New(rand.NewSource(ann.MixSeed(opts.SVDSeed, int64(epoch), int64(rot), int64(us))))
					rng.Shuffle(len(block), func(a, b int) { block[a], block[b] = block[b], block[a] })
					for _, r := range block {
						p, q := m.UserFactors[r.User], m.ItemFactors[r.Item]
						pred := Dot(p, q)
						err := r.Value - pred
						for f := 0; f < k; f++ {
							pf, qf := p[f], q[f]
							p[f] += lr * (err*qf - lam*pf)
							q[f] += lr * (err*pf - lam*qf)
						}
					}
				}
			})
		}
	}
}

// Dot returns the inner product of two equal-length vectors.
func Dot(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// Algorithm implements Model.
func (m *FactorModel) Algorithm() Algorithm { return SVD }

// Predict implements Model: the dot product of the user and item factor
// vectors (Algorithm 2).
func (m *FactorModel) Predict(user, item int64) (float64, bool) {
	p, pok := m.UserFactors[user]
	q, qok := m.ItemFactors[item]
	if !pok || !qok {
		return 0, false
	}
	return Dot(p, q), true
}

// Build constructs the model for any supported algorithm.
func Build(ratings []Rating, algo Algorithm, opts BuildOptions) (Model, error) {
	switch algo {
	case SVD:
		return TrainSVD(ratings, opts)
	case Popularity:
		return BuildPopularity(ratings), nil
	default:
		return BuildNeighborhood(ratings, algo, opts)
	}
}
