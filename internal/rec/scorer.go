package rec

// Scorer predicts RecScore(u, i) from a materialized model for one user at
// a time: ForUser loads that user's side of the model once — rated items,
// plus the similarity list (user-based) or factor vector (SVD) — and Score
// reads the item side. It is the single place that chooses a prediction
// rule by algorithm; the RECOMMEND operator, Predict, PredictForUser and
// cache materialization all score through it. A Scorer is not safe for
// concurrent use; take one per scan.
type Scorer struct {
	store *ModelStore

	seen      map[int64]float64
	neighbors []Neighbor // user-based: the user's similarity list
	factors   []float64  // SVD: the user's factor vector

	// Item-side state kept across users (nil when the scan serves one
	// user). Algorithm 1 needs the same item-side run for every user, so
	// each is read from the model table once per scan and held decoded for
	// the users that follow. A one-user scan has nobody to share with and
	// streams item-based runs instead (PredictItemBased).
	itemNeighbors map[int64][]Neighbor
	itemRaters    map[int64]map[int64]float64
	itemFactors   map[int64][]float64
}

// Scorer returns a scorer over s. shared says the scan will score the same
// items for several users, which turns on the item-side memo.
func (s *ModelStore) Scorer(shared bool) *Scorer {
	sc := &Scorer{store: s}
	if shared {
		switch {
		case s.Algo.ItemBased():
			sc.itemNeighbors = make(map[int64][]Neighbor)
		case s.Algo.UserBased():
			sc.itemRaters = make(map[int64]map[int64]float64)
		case s.Algo == SVD:
			sc.itemFactors = make(map[int64][]float64)
		}
	}
	return sc
}

// ForUser makes u the user Score and Rated answer for.
func (sc *Scorer) ForUser(u int64) error {
	var err error
	if sc.seen, err = sc.store.UserItems(u); err != nil {
		return err
	}
	switch {
	case sc.store.Algo.UserBased():
		sc.neighbors, err = sc.store.UserNeighbors(u)
	case sc.store.Algo == SVD:
		sc.factors, err = sc.store.UserFactors(u)
	}
	return err
}

// Rated returns the rating the current user gave item i, if any. Before
// the first ForUser nothing is rated.
func (sc *Scorer) Rated(i int64) (float64, bool) {
	r, ok := sc.seen[i]
	return r, ok
}

// Factors returns the current user's latent vector (SVD), nil when the
// model does not know the user.
func (sc *Scorer) Factors() []float64 { return sc.factors }

// Score estimates RecScore(current user, i), following the per-algorithm
// operators of §IV-A. ok is false when the model has no basis for a
// prediction (Algorithm 1 then emits 0).
func (sc *Scorer) Score(i int64) (score float64, ok bool, err error) {
	s := sc.store
	switch {
	case s.Algo.ItemBased():
		if sc.itemNeighbors == nil {
			return s.PredictItemBased(i, sc.seen)
		}
		neighbors, err := memo(sc.itemNeighbors, i, s.ItemNeighbors)
		if err != nil {
			return 0, false, err
		}
		score, ok = PredictWeighted(neighbors, sc.seen)
	case s.Algo.UserBased():
		raters, err := memo(sc.itemRaters, i, s.ItemRaters)
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
		q, err := memo(sc.itemFactors, i, s.ItemFactors)
		if err != nil || q == nil {
			return 0, false, err
		}
		score, ok = Dot(sc.factors, q), true
	}
	return score, ok, nil
}

// memo returns load(key), remembering the result in m when m is non-nil.
func memo[V any](m map[int64]V, key int64, load func(int64) (V, error)) (V, error) {
	if v, ok := m[key]; ok {
		return v, nil
	}
	v, err := load(key)
	if err == nil && m != nil {
		m[key] = v
	}
	return v, err
}

// Predict estimates RecScore(u, i) from the materialized tables.
func (s *ModelStore) Predict(u, i int64) (float64, bool, error) {
	sc := s.Scorer(false)
	if err := sc.ForUser(u); err != nil {
		return 0, false, err
	}
	return sc.Score(i)
}

// PredictForUser estimates RecScore(u, i) for a whole batch of items,
// loading the per-user state once instead of once per pair the way
// repeated Predict calls would. The storage layer's page latches make
// concurrent PredictForUser calls for different users safe, which is what
// parallel cache materialization relies on.
func (s *ModelStore) PredictForUser(u int64, items []int64) ([]float64, []bool, error) {
	sc := s.Scorer(false)
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
