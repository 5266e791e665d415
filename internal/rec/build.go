package rec

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"

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

// ratingsIndex is the shared per-user / per-item view of the input.
type ratingsIndex struct {
	byUser map[int64]map[int64]float64 // user → item → rating
	byItem map[int64]map[int64]float64 // item → user → rating
	users  []int64
	items  []int64
	n      int
}

func indexRatings(ratings []Rating) *ratingsIndex {
	ix := &ratingsIndex{
		byUser: make(map[int64]map[int64]float64),
		byItem: make(map[int64]map[int64]float64),
	}
	for _, r := range ratings {
		u := ix.byUser[r.User]
		if u == nil {
			u = make(map[int64]float64)
			ix.byUser[r.User] = u
		}
		if _, dup := u[r.Item]; !dup {
			ix.n++
		}
		u[r.Item] = r.Value
		it := ix.byItem[r.Item]
		if it == nil {
			it = make(map[int64]float64)
			ix.byItem[r.Item] = it
		}
		it[r.User] = r.Value
	}
	ix.users = sortedKeys(ix.byUser)
	ix.items = sortedKeys(ix.byItem)
	return ix
}

func sortedKeys(m map[int64]map[int64]float64) []int64 {
	out := make([]int64, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func (ix *ratingsIndex) seen(user, item int64) (float64, bool) {
	v, ok := ix.byUser[user][item]
	return v, ok
}

func (ix *ratingsIndex) allRatings() []Rating {
	out := make([]Rating, 0, ix.n)
	for _, u := range ix.users {
		items := make([]int64, 0, len(ix.byUser[u]))
		for i := range ix.byUser[u] {
			items = append(items, i)
		}
		sort.Slice(items, func(a, b int) bool { return items[a] < items[b] })
		for _, i := range items {
			out = append(out, Rating{User: u, Item: i, Value: ix.byUser[u][i]})
		}
	}
	return out
}

// ---- Neighborhood models (ItemCosCF / ItemPearCF / UserCosCF / UserPearCF) ----

// NeighborhoodModel is a similarity-list model: item-item or user-user.
type NeighborhoodModel struct {
	algo Algorithm
	ix   *ratingsIndex
	// neighbors maps the entity id (item for item-based, user for
	// user-based) to its similarity list, sorted by descending |sim|.
	neighbors map[int64][]Neighbor
	// cut says NeighborhoodSize truncated at least one list. Until it
	// does, every pair's similarity sits in both its entities' lists, so
	// the lists are their own transpose.
	cut bool
}

// BuildNeighborhood computes the similarity lists for a neighborhood
// algorithm (Step I of §II; Equation 1 for cosine). For Pearson variants
// the vectors are mean-centered per entity before the cosine, the classic
// adjusted formulation.
//
// The pairwise dot products are accumulated in parallel over
// opts.Workers workers. Each (a, b) accumulator is owned by exactly one
// worker — the one that owns entity a's position — and every worker
// walks the shared dimensions in ascending order, so the float sums are
// formed in the same order at any worker count and the model is
// bit-identical whether built serially or in parallel.
func BuildNeighborhood(ratings []Rating, algo Algorithm, opts BuildOptions) (*NeighborhoodModel, error) {
	if !algo.ItemBased() && !algo.UserBased() {
		return nil, fmt.Errorf("rec: %v is not a neighborhood algorithm", algo)
	}
	opts = opts.withDefaults()
	workers := opts.Workers
	ix := indexRatings(ratings)

	// For item-based models the "entities" are items and the shared
	// dimension is users; user-based swaps the roles. vectors[e] maps
	// dimension → value.
	var vectors, shared map[int64]map[int64]float64
	var entities, dims []int64
	if algo.ItemBased() {
		vectors, entities = ix.byItem, ix.items
		shared, dims = ix.byUser, ix.users // user → items rated
	} else {
		vectors, entities = ix.byUser, ix.users
		shared, dims = ix.byItem, ix.items // item → users who rated
	}
	ne := len(entities)
	pos := make(map[int64]int32, ne)
	for p, e := range entities {
		pos[e] = int32(p)
	}

	// Per-entity mean (Pearson only) and vector norm, chunked by entity.
	// Norm terms are summed in ascending dimension order so the value does
	// not depend on map iteration order.
	pearson := algo.Pearson()
	center := make([]float64, ne)
	norms := make([]float64, ne)
	ann.RunChunks(workers, ne, func(_, lo, hi int) {
		var dimbuf []int64
		for pe := lo; pe < hi; pe++ {
			vec := vectors[entities[pe]]
			dimbuf = dimbuf[:0]
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
			c := center[pe]
			for _, d := range dimbuf {
				v := vec[d] - c
				s += v * v
			}
			norms[pe] = math.Sqrt(s)
		}
	})

	// Flatten the shared-dimension view into one CSR-style buffer: for each
	// dimension, the ascending entity positions that co-occur on it and
	// their centered values. One allocation replaces the per-dimension ids
	// slice of the old serial loop.
	nd := len(dims)
	offsets := make([]int, nd+1)
	for pd, d := range dims {
		offsets[pd+1] = offsets[pd] + len(shared[d])
	}
	dimPos := make([]int32, offsets[nd])
	dimVal := make([]float64, offsets[nd])
	ann.RunChunks(workers, nd, func(_, lo, hi int) {
		for pd := lo; pd < hi; pd++ {
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
	})

	// Sharded dot-product accumulation: worker w owns every pair whose
	// first (lower) entity position is ≡ w mod workers. The outer scan over
	// dimensions is replicated per worker — O(nnz), cheap — while the
	// quadratic inner loop is partitioned.
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

	// Merge shards into per-entity lists, then sort and truncate, chunked
	// by entity position. Concurrent chunk workers only read the shard
	// maps and write disjoint list slots. Append order varies with map
	// iteration, but the sort's (|sim| desc, ID asc) key is total, so the
	// final lists are deterministic.
	lists := make([][]Neighbor, ne)
	cutBy := make([]bool, workers) // written by worker w only
	ann.RunChunks(workers, ne, func(w, lo, hi int) {
		for _, dots := range shards {
			for key, dot := range dots {
				pa, pb := int(key>>32), int(key&0xffffffff)
				aIn := pa >= lo && pa < hi
				bIn := pb >= lo && pb < hi
				if !aIn && !bIn {
					continue
				}
				na, nb := norms[pa], norms[pb]
				if na == 0 || nb == 0 || dot == 0 {
					continue
				}
				sim := dot / (na * nb)
				if aIn {
					lists[pa] = append(lists[pa], Neighbor{ID: entities[pb], Sim: sim})
				}
				if bIn {
					lists[pb] = append(lists[pb], Neighbor{ID: entities[pa], Sim: sim})
				}
			}
		}
		for pe := lo; pe < hi; pe++ {
			list := lists[pe]
			sort.Slice(list, func(i, j int) bool {
				ai, aj := math.Abs(list[i].Sim), math.Abs(list[j].Sim)
				if ai != aj {
					return ai > aj
				}
				return list[i].ID < list[j].ID
			})
			if opts.NeighborhoodSize > 0 && len(list) > opts.NeighborhoodSize {
				list = list[:opts.NeighborhoodSize]
				cutBy[w] = true
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
	return &NeighborhoodModel{algo: algo, ix: ix, neighbors: neighbors, cut: slices.Contains(cutBy, true)}, nil
}

// Algorithm implements Model.
func (m *NeighborhoodModel) Algorithm() Algorithm { return m.algo }

// NumRatings implements Model.
func (m *NeighborhoodModel) NumRatings() int { return m.ix.n }

// Users implements Model.
func (m *NeighborhoodModel) Users() []int64 { return m.ix.users }

// Items implements Model.
func (m *NeighborhoodModel) Items() []int64 { return m.ix.items }

// Seen implements Model.
func (m *NeighborhoodModel) Seen(user, item int64) (float64, bool) { return m.ix.seen(user, item) }

// Ratings implements Model.
func (m *NeighborhoodModel) Ratings() []Rating { return m.ix.allRatings() }

// Neighbors returns the similarity list for an item (item-based) or user
// (user-based), sorted by descending |similarity|.
func (m *NeighborhoodModel) Neighbors(id int64) []Neighbor { return m.neighbors[id] }

// Predict implements Model using Equation 2: the weighted average of the
// user's ratings over the intersection of the candidate's similarity list
// with the user's rated items (item-based), or of the neighbors' ratings
// for the candidate item (user-based).
func (m *NeighborhoodModel) Predict(user, item int64) (float64, bool) {
	if m.algo.ItemBased() {
		return PredictWeighted(m.neighbors[item], m.ix.byUser[user])
	}
	return PredictWeighted(m.neighbors[user], m.ix.byItem[item])
}

// PredictWeighted evaluates Equation 2 given a similarity list and the map
// of known ratings keyed by the same id space as the list. ok is false when
// the intersection is empty (the operators then emit 0).
func PredictWeighted(neighbors []Neighbor, known map[int64]float64) (float64, bool) {
	if len(neighbors) == 0 || len(known) == 0 {
		return 0, false
	}
	var sum weightedSum
	for _, n := range neighbors {
		if r, ok := known[n.ID]; ok {
			sum.add(n.Sim, r)
		}
	}
	return sum.score()
}

// weightedSum accumulates Equation 2 one matched neighbour at a time, so
// a list held in memory and a run streamed from the model table add up in
// the same order to the same bits.
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
	ix          *ratingsIndex
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
		ix:          ix,
		UserFactors: make(map[int64][]float64, len(ix.users)),
		ItemFactors: make(map[int64][]float64, len(ix.items)),
		K:           k,
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
	userStratum := make(map[int64]int, len(ix.users))
	for p, u := range ix.users {
		userStratum[u] = p % svdStrata
	}
	itemStratum := make(map[int64]int, len(ix.items))
	for p, i := range ix.items {
		itemStratum[i] = p % svdStrata
	}
	blocks := make([][]Rating, svdStrata*svdStrata)
	for _, r := range ix.allRatings() {
		b := userStratum[r.User]*svdStrata + itemStratum[r.Item]
		blocks[b] = append(blocks[b], r)
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

// NumRatings implements Model.
func (m *FactorModel) NumRatings() int { return m.ix.n }

// Users implements Model.
func (m *FactorModel) Users() []int64 { return m.ix.users }

// Items implements Model.
func (m *FactorModel) Items() []int64 { return m.ix.items }

// Seen implements Model.
func (m *FactorModel) Seen(user, item int64) (float64, bool) { return m.ix.seen(user, item) }

// Ratings implements Model.
func (m *FactorModel) Ratings() []Rating { return m.ix.allRatings() }

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
