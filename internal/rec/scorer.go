package rec

// Scorer predicts RecScore(u, i) from a model store for one user at
// a time: ForUser loads that user's side of the model once — rated items,
// plus the similarity list (user-based) or factor vector (SVD) — and Score
// reads the item side. It is the single place that chooses a prediction
// rule by algorithm; the RECOMMEND operator, cache materialization
// (PredictForUser), OnTopDB and Evaluate (Predict) all score through it. A
// Scorer is not safe for concurrent use; take one per scan.
//
// A scan is wide for a user when it has more candidates than the user has
// ratings, of which there is at least one. Then ForUser marks the user's
// items by position, through the positions the user's ratings run holds,
// and the next ForUser clears them the same way: a candidate's rating, in
// any order the scan offers it, costs one id → position lookup and an
// array read (Rated, Candidate). A narrow scan, fewer candidates than the
// user has ratings, binary-searches the ratings run per candidate instead,
// which costs less than marking it.
//
// Item-based models have two sides that give the same bits, because every
// path adds Equation 2's terms in ascending neighbour id (weightedSum).
// Item-driven, Score(i) merges i's similarity run with the user's ratings —
// one run per candidate. User-driven, ForUser walks the run of each item j
// the user rated, in ascending j, and adds sim(i, j)·r_j into the
// accumulator at each row's neighbour position, so a candidate's score is
// an array read at the position its rating lookup found — one run per
// rated item, and no lookup per row. The second reads j's run for i's
// terms, which is exact because the item lists are their own transpose:
// every list is whole, so j is in i's list with similarity s exactly when
// i is in j's list with the same s, bit for bit. neighborhoodLists
// computes the pair (i, j) once from each side, and the two sides form the
// same dot product — the same products, since IEEE multiplication
// commutes, summed over the shared dimensions in the same ascending order
// — and divide it by the same two norms, also multiplied in swapped order.
// ForUser takes the user-driven side when the scan is wide for the user: a
// user with no ratings has no score on either side, and the user-driven
// side would allocate and clear an item-sized accumulator to say so.
//
// Every run and factor vector the Scorer reads is the model's own, which
// every scan of the model version shares, so the Scorer keeps no model
// state across users and, once it has marked a wide user, loads a user
// without allocating.
type Scorer struct {
	store      *ModelStore
	candidates int // items the scan scores per user

	seen      []Neighbor // the user's ratings, ascending in item
	seenAt    []int32    // the positions of seen's items in ItemIDs
	neighbors []Neighbor // user-based: the user's similarity list
	factors   []float64  // SVD: the user's factor vector

	// Wide-scan state: rated[p] is x+1 when seen[x] is model item p's
	// rating, 0 for an item the user did not rate.
	wide  bool
	rated []int32

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
	s := sc.store
	if sc.wide {
		for _, p := range sc.seenAt {
			sc.rated[p] = 0
		}
	}
	sc.seen, sc.seenAt = s.ratings.userRunAt(u)
	sc.wide = len(sc.seen) > 0 && sc.candidates > len(sc.seen)
	if sc.wide {
		if sc.rated == nil {
			sc.rated = make([]int32, len(s.ItemIDs()))
		}
		for x, p := range sc.seenAt {
			sc.rated[p] = int32(x) + 1
		}
	}
	sc.userDriven = sc.wide && s.Algo.ItemBased()
	switch {
	case sc.userDriven:
		sc.scoreFromUser()
	case s.Algo.UserBased():
		sc.neighbors = s.UserNeighbors(u)
	case s.Algo == SVD:
		sc.factors = s.UserFactors(u)
	}
}

// UserDriven reports whether the current user was scored from the user's
// side.
func (sc *Scorer) UserDriven() bool { return sc.userDriven }

// Rated returns the rating the current user gave item i, if any. Before
// the first ForUser nothing is rated.
func (sc *Scorer) Rated(i int64) (float64, bool) {
	if !sc.wide {
		return ValueOf(sc.seen, i)
	}
	if p, ok := sc.store.itemPos.lookup(i); ok {
		return sc.ratedAt(p)
	}
	return 0, false
}

// ratedAt returns the rating the current user of a wide scan gave model
// item p, if any.
func (sc *Scorer) ratedAt(p int32) (float64, bool) {
	if x := sc.rated[p]; x != 0 {
		return sc.seen[x-1].Sim, true
	}
	return 0, false
}

// Candidate returns what a scan emits for candidate item i and the
// current user: the rating the user gave i (rated), or else RecScore(u,
// i), 0 when the model has no basis for one (Algorithm 1 line 14).
// User-driven, that is one position lookup and two array reads.
func (sc *Scorer) Candidate(i int64) (value float64, rated bool) {
	if sc.userDriven {
		p, ok := sc.store.itemPos.lookup(i)
		if !ok {
			return 0, false
		}
		if r, ok := sc.ratedAt(p); ok {
			return r, true
		}
		score, _ := sc.sums[p].score()
		return score, false
	}
	if r, ok := sc.Rated(i); ok {
		return r, true
	}
	if score, ok := sc.Score(i); ok {
		return score, false
	}
	return 0, false
}

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
// is added straight into the sum at its neighbour's position: no
// per-candidate storage, no merge, no lookup.
func (sc *Scorer) scoreFromUser() {
	lists := sc.store.itemLists
	if sc.sums == nil {
		sc.sums = make([]weightedSum, len(sc.store.ItemIDs()))
	}
	clear(sc.sums)
	for x, pj := range sc.seenAt {
		r := sc.seen[x].Sim
		run, at := lists.run(int(pj)), lists.ats(int(pj))
		for y, p := range at {
			sc.sums[p].add(run[y].Sim, r)
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
