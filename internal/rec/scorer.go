package rec

// Scorer predicts RecScore(u, i) from a materialized model for one user at
// a time: ForUser loads that user's side of the model once — rated items,
// plus the similarity list (user-based) or factor vector (SVD) — and Score
// reads the item side. It is the single place that chooses a prediction
// rule by algorithm; the RECOMMEND operator, Predict, PredictForUser and
// cache materialization all score through it. A Scorer is not safe for
// concurrent use; take one per scan.
//
// Item-based models have two sides that give the same bits, because every
// path adds Equation 2's terms in ascending neighbour id (weightedSum).
// Item-driven, Score(i) merges i's similarity run with the user's ratings —
// one run per candidate. User-driven, ForUser walks the run of each item j
// the user rated, in ascending j, and adds sim(i, j)·r_j into every i's
// accumulator, so Score is an array read — one run per rated item. The
// second reads j's run for i's terms, which is exact only while every list
// is whole (the store is symmetric); ForUser takes it when that holds and
// the scan has more candidates than the user has ratings.
//
// Every run and factor vector the Scorer reads is the store's decoded one
// (perKey), which every scan of the model version shares, so the Scorer
// keeps no model state across users, and a user whose runs are decoded is
// loaded without allocating.
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
func (sc *Scorer) ForUser(u int64) error {
	var err error
	if sc.seen, err = sc.store.UserItems(u); err != nil {
		return err
	}
	sc.userDriven = sc.store.symmetric && sc.candidates > len(sc.seen)
	switch {
	case sc.userDriven:
		err = sc.scoreFromUser()
	case sc.store.Algo.UserBased():
		sc.neighbors, err = sc.store.UserNeighbors(u)
	case sc.store.Algo == SVD:
		sc.factors, err = sc.store.UserFactors(u)
	}
	return err
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
func (sc *Scorer) Score(i int64) (score float64, ok bool, err error) {
	s := sc.store
	switch {
	case sc.userDriven:
		p, known := s.itemPos.lookup(i)
		if !known {
			return 0, false, nil
		}
		score, ok = sc.sums[p].score()
	case s.Algo.ItemBased():
		return s.PredictItemBased(i, sc.seen)
	case s.Algo.UserBased():
		raters, err := s.ItemRaters(i)
		if err != nil {
			return 0, false, err
		}
		score, ok = PredictWeighted(sc.neighbors, raters)
	case s.Algo == Popularity:
		return s.ItemScoreOf(i)
	default: // SVD, Algorithm 2
		if sc.factors == nil {
			return 0, false, nil
		}
		q, err := s.ItemFactors(i)
		if err != nil || q == nil {
			return 0, false, err
		}
		score, ok = Dot(sc.factors, q), true
	}
	return score, ok, nil
}

// scoreFromUser fills sums for the current user from the user's side.
// Equation 2's terms for candidate i are sim(i, j)·r_j and |sim(i, j)|
// over the rated j in i's list, and every path adds them in ascending j.
// Walking the user's ratings, which are in ascending j, each one's run
// once, delivers every candidate's terms in exactly that order, so each row
// is added straight into its candidate's sum: no per-candidate storage, no
// merge.
func (sc *Scorer) scoreFromUser() error {
	s := sc.store
	if sc.sums == nil {
		sc.sums = make([]weightedSum, len(s.itemIDs))
	}
	clear(sc.sums)
	for _, j := range sc.seen {
		run, err := s.ItemNeighbors(j.ID)
		if err != nil {
			return err
		}
		for _, n := range run {
			if p, ok := s.itemPos.lookup(n.ID); ok {
				sc.sums[p].add(n.Sim, j.Sim)
			}
		}
	}
	return nil
}

// Predict estimates RecScore(u, i) from the materialized tables.
func (s *ModelStore) Predict(u, i int64) (float64, bool, error) {
	sc := s.Scorer(1)
	if err := sc.ForUser(u); err != nil {
		return 0, false, err
	}
	return sc.Score(i)
}

// PredictForUser estimates RecScore(u, i) for a whole batch of items,
// loading the per-user state once instead of once per pair the way
// repeated Predict calls would. The storage layer's page latches and the
// atomic publication of decoded runs make concurrent PredictForUser calls
// for different users safe, which is what parallel cache materialization
// relies on.
func (s *ModelStore) PredictForUser(u int64, items []int64) ([]float64, []bool, error) {
	sc := s.Scorer(len(items))
	if err := sc.ForUser(u); err != nil {
		return nil, nil, err
	}
	scores := make([]float64, len(items))
	oks := make([]bool, len(items))
	for x, i := range items {
		var err error
		if scores[x], oks[x], err = sc.Score(i); err != nil {
			return nil, nil, err
		}
	}
	return scores, oks, nil
}
