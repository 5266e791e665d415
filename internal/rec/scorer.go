package rec

// Scorer predicts RecScore(u, i) from a model store for one user at
// a time: ForUser loads that user's side of the model once — rated items,
// plus the similarity list (user-based) or factor vector (SVD) — and Score
// reads the item side. It is the single place that chooses a prediction
// rule by algorithm; the RECOMMEND operator, cache materialization
// (PredictForUser), OnTopDB and Evaluate (Predict) all score through it. A
// Scorer is not safe for concurrent use; take one per scan.
//
// Item-based models have two sides that give the same bits, because every
// path adds Equation 2's terms in ascending neighbour id (weightedSum).
// Item-driven, Score(i) merges i's similarity run with the user's ratings —
// one run per candidate. User-driven, ForUser walks the run of each item j
// the user rated, in ascending j, and adds sim(i, j)·r_j into every i's
// accumulator, so Score is an array read — one run per rated item. The
// second reads j's run for i's terms, which is exact because the item
// lists are their own transpose: every list is whole, so j is in i's list
// with similarity s exactly when i is in j's list with the same s, bit for
// bit. neighborhoodLists computes the pair (i, j) once from each side, and
// the two sides form the same dot product — the same products, since IEEE
// multiplication commutes, summed over the shared dimensions in the same
// ascending order — and divide it by the same two norms, also multiplied
// in swapped order. ForUser takes the user-driven side when the scan has
// more candidates than the user has ratings, of which there is at least
// one: a user with none has no score on either side, and the user-driven
// side would allocate and clear an item-sized accumulator to say so.
//
// Every run and factor vector the Scorer reads is the model's own, which
// every scan of the model version shares, so the Scorer keeps no model
// state across users and loads a user without allocating.
type Scorer struct {
	store      *ModelStore
	candidates int // items the scan scores per user

	seen      []Neighbor // the user's ratings, ascending in item
	neighbors []Neighbor // user-based: the user's similarity list
	factors   []float64  // SVD: the user's factor vector

	// User-driven state: sums[p] is Equation 2 for model item p.
	userDriven bool
	sums       []weightedSum
}

// Scorer returns a scorer over s for a scan that scores candidates items
// per user.
func (s *ModelStore) Scorer(candidates int) *Scorer {
	return &Scorer{store: s, candidates: candidates}
}

// ForUser makes u the user Score and Rated answer for.
func (sc *Scorer) ForUser(u int64) {
	sc.seen = sc.store.UserItems(u)
	sc.userDriven = sc.store.Algo.ItemBased() && len(sc.seen) > 0 && sc.candidates > len(sc.seen)
	switch {
	case sc.userDriven:
		sc.scoreFromUser()
	case sc.store.Algo.UserBased():
		sc.neighbors = sc.store.UserNeighbors(u)
	case sc.store.Algo == SVD:
		sc.factors = sc.store.UserFactors(u)
	}
}

// UserDriven reports whether the current user was scored from the user's
// side.
func (sc *Scorer) UserDriven() bool { return sc.userDriven }

// Rated returns the rating the current user gave item i, if any. Before
// the first ForUser nothing is rated.
func (sc *Scorer) Rated(i int64) (float64, bool) { return ValueOf(sc.seen, i) }

// Factors returns the current user's latent vector (SVD), nil when the
// model does not know the user.
func (sc *Scorer) Factors() []float64 { return sc.factors }

// Score estimates RecScore(current user, i), following the per-algorithm
// operators of §IV-A. ok is false when the model has no basis for a
// prediction (Algorithm 1 then emits 0).
func (sc *Scorer) Score(i int64) (score float64, ok bool) {
	s := sc.store
	switch {
	case sc.userDriven:
		p, known := s.itemPos.lookup(i)
		if !known {
			return 0, false
		}
		return sc.sums[p].score()
	case s.Algo.ItemBased():
		return s.PredictItemBased(i, sc.seen)
	case s.Algo.UserBased():
		return PredictWeighted(sc.neighbors, s.ItemRaters(i))
	case s.Algo == Popularity:
		return s.ItemScoreOf(i)
	default: // SVD, Algorithm 2
		q := s.ItemFactors(i)
		if sc.factors == nil || q == nil {
			return 0, false
		}
		return Dot(sc.factors, q), true
	}
}

// scoreFromUser fills sums for the current user from the user's side.
// Equation 2's terms for candidate i are sim(i, j)·r_j and |sim(i, j)|
// over the rated j in i's list, and every path adds them in ascending j.
// Walking the user's ratings, which are in ascending j, each one's run
// once, delivers every candidate's terms in exactly that order, so each row
// is added straight into its candidate's sum: no per-candidate storage, no
// merge.
func (sc *Scorer) scoreFromUser() {
	s := sc.store
	if sc.sums == nil {
		sc.sums = make([]weightedSum, len(s.ItemIDs()))
	}
	clear(sc.sums)
	for _, j := range sc.seen {
		for _, n := range s.ItemNeighbors(j.ID) {
			if p, ok := s.itemPos.lookup(n.ID); ok {
				sc.sums[p].add(n.Sim, j.Sim)
			}
		}
	}
}

// Predict estimates RecScore(u, i) from the model.
func (s *ModelStore) Predict(u, i int64) (float64, bool) {
	sc := s.Scorer(1)
	sc.ForUser(u)
	return sc.Score(i)
}

// PredictForUser estimates RecScore(u, i) for a whole batch of items,
// loading the per-user state once instead of once per pair the way
// repeated Predict calls would. The store is read-only, so concurrent
// PredictForUser calls are safe, which is what parallel cache
// materialization relies on.
func (s *ModelStore) PredictForUser(u int64, items []int64) ([]float64, []bool) {
	sc := s.Scorer(len(items))
	sc.ForUser(u)
	scores := make([]float64, len(items))
	oks := make([]bool, len(items))
	for x, i := range items {
		scores[x], oks[x] = sc.Score(i)
	}
	return scores, oks
}
