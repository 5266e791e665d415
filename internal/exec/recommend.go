package exec

import (
	"fmt"

	"recdb/internal/expr"
	"recdb/internal/rec"
	"recdb/internal/recindex"
	"recdb/internal/types"
)

// RecSchema builds the output schema of a RECOMMEND operator: the
// (user, item, rating) columns named in the clause, visible under the
// ratings table's alias.
func RecSchema(qualifier, userCol, itemCol, ratingCol string) *types.Schema {
	return types.NewSchema(
		types.Column{Qualifier: qualifier, Name: userCol, Kind: types.KindInt},
		types.Column{Qualifier: qualifier, Name: itemCol, Kind: types.KindInt},
		types.Column{Qualifier: qualifier, Name: ratingCol, Kind: types.KindFloat},
	)
}

// Recommend is the RECOMMEND operator family of §IV-A (ITEMCF, USERCF, and
// MATRIXFACT variants, selected by the model store's algorithm). With nil
// Users/Items it reproduces Algorithms 1-2: predict a rating for every
// (user, item) pair, emitting the actual rating for already-rated pairs
// and 0 when the model has no basis. Restricting Users/Items turns it into
// FILTERRECOMMEND: the uid/iid predicates are pushed down so prediction is
// computed only for pairs that can satisfy them (§IV-B1). An optional
// RatingPred applies a pushed-down predicate on the predicted value.
type Recommend struct {
	Store *rec.ModelStore
	// Users restricts the user loop (nil = all model users).
	Users []int64
	// Items restricts the item loop (nil = all model items).
	Items []int64
	// RatingPred, when set, filters emitted rows by predicted value.
	RatingPred expr.Compiled
	// IncludeSeen controls whether already-rated pairs are emitted (with
	// their actual rating, per Algorithm 1). Top-k recommendation queries
	// exclude them.
	IncludeSeen bool

	schema *types.Schema

	users, items []int64
	ui, ii       int
	curUserItems map[int64]float64
	curNeighbors []rec.Neighbor // user-based: current user's similarity list
	curFactors   []float64      // SVD: current user's factor vector

	// Per-item state is memoized across the user loop: Algorithm 1 needs
	// the same item-side run for every user, so each is read from the
	// model table once per scan and held decoded for the users that
	// follow. A one-user item-based scan has nobody to share a list with
	// and streams the run instead (see predict).
	itemNeighborsMemo map[int64][]rec.Neighbor
	itemRatersMemo    map[int64]map[int64]float64
	itemFactorsMemo   map[int64][]float64
}

// NewRecommend creates a RECOMMEND operator with the given output schema.
func NewRecommend(store *rec.ModelStore, schema *types.Schema) *Recommend {
	return &Recommend{Store: store, schema: schema, IncludeSeen: true}
}

// Schema implements Operator.
func (r *Recommend) Schema() *types.Schema { return r.schema }

// Open implements Operator.
func (r *Recommend) Open() error {
	if r.Users != nil {
		r.users = r.Users
	} else {
		r.users = r.Store.UserIDs()
	}
	if r.Items != nil {
		r.items = r.Items
	} else {
		r.items = r.Store.ItemIDs()
	}
	r.ui, r.ii = 0, 0
	r.curUserItems = nil
	switch {
	case r.Store.Algo.ItemBased():
		r.itemNeighborsMemo = make(map[int64][]rec.Neighbor)
	case r.Store.Algo.UserBased():
		r.itemRatersMemo = make(map[int64]map[int64]float64)
	case r.Store.Algo == rec.SVD:
		r.itemFactorsMemo = make(map[int64][]float64)
	}
	return nil
}

// loadUser fetches the per-user state for the outer loop.
func (r *Recommend) loadUser(u int64) error {
	items, err := r.Store.UserItems(u)
	if err != nil {
		return err
	}
	r.curUserItems = items
	switch {
	case r.Store.Algo.UserBased():
		if r.curNeighbors, err = r.Store.UserNeighbors(u); err != nil {
			return err
		}
	case r.Store.Algo == rec.SVD:
		if r.curFactors, err = r.Store.UserFactors(u); err != nil {
			return err
		}
	}
	return nil
}

// Next implements Operator: the block-nested-loop of Algorithms 1-2 with
// the outer loop over users and the inner loop over items.
func (r *Recommend) Next() (types.Row, bool, error) {
	for {
		if r.ui >= len(r.users) {
			return nil, false, nil
		}
		u := r.users[r.ui]
		if r.curUserItems == nil {
			if err := r.loadUser(u); err != nil {
				return nil, false, err
			}
		}
		if r.ii >= len(r.items) {
			r.ui++
			r.ii = 0
			r.curUserItems = nil
			continue
		}
		i := r.items[r.ii]
		r.ii++

		var score float64
		if actual, rated := r.curUserItems[i]; rated {
			if !r.IncludeSeen {
				continue
			}
			score = actual
		} else {
			s, ok, err := r.predict(u, i)
			if err != nil {
				return nil, false, err
			}
			if !ok {
				s = 0 // Algorithm 1 line 14
			}
			score = s
		}
		row := types.Row{types.NewInt(u), types.NewInt(i), types.NewFloat(score)}
		if r.RatingPred != nil {
			v, err := r.RatingPred(row)
			if err != nil {
				return nil, false, err
			}
			if !expr.Truthy(v) {
				continue
			}
		}
		return row, true, nil
	}
}

func (r *Recommend) predict(u, i int64) (float64, bool, error) {
	switch {
	case r.Store.Algo.ItemBased():
		if len(r.users) == 1 {
			return r.Store.PredictItemBased(i, r.curUserItems)
		}
		neighbors, cached := r.itemNeighborsMemo[i]
		if !cached {
			var err error
			if neighbors, err = r.Store.ItemNeighbors(i); err != nil {
				return 0, false, err
			}
			r.itemNeighborsMemo[i] = neighbors
		}
		s, ok := rec.PredictWeighted(neighbors, r.curUserItems)
		return s, ok, nil
	case r.Store.Algo.UserBased():
		raters, cached := r.itemRatersMemo[i]
		if !cached {
			var err error
			if raters, err = r.Store.ItemRaters(i); err != nil {
				return 0, false, err
			}
			r.itemRatersMemo[i] = raters
		}
		s, ok := rec.PredictWeighted(r.curNeighbors, raters)
		return s, ok, nil
	case r.Store.Algo == rec.Popularity:
		return r.Store.ItemScoreOf(i)
	default: // SVD, Algorithm 2
		q, cached := r.itemFactorsMemo[i]
		if !cached {
			var err error
			if q, err = r.Store.ItemFactors(i); err != nil {
				return 0, false, err
			}
			r.itemFactorsMemo[i] = q
		}
		if r.curFactors == nil || q == nil {
			return 0, false, nil
		}
		return rec.Dot(r.curFactors, q), true, nil
	}
}

// Close implements Operator.
func (r *Recommend) Close() error {
	r.curUserItems = nil
	r.itemNeighborsMemo = nil
	r.itemRatersMemo = nil
	r.itemFactorsMemo = nil
	return nil
}

// ---- JOINRECOMMEND ----

// JoinRecommend is the JOINRECOMMEND operator of §IV-B2. Analogous to an
// index nested-loop join, it drives prediction from the outer relation:
// for each outer tuple it extracts the item id and computes the predicted
// rating only for items that are guaranteed to satisfy the join predicate.
// Output rows are 〈uid, iid, ratingval〉 ++ outer tuple.
type JoinRecommend struct {
	Store *rec.ModelStore
	// Outer is the joined relation (e.g. σ_genre(Movies)).
	Outer Operator
	// OuterItemCol is the position of the join column (item id) in Outer.
	OuterItemCol int
	// Users are the querying users (from the uid predicate; nil = all).
	Users []int64
	// IncludeSeen mirrors Recommend.IncludeSeen.
	IncludeSeen bool

	schema *types.Schema

	users       []int64
	curOuter    types.Row
	haveOuter   bool
	ui          int
	userItems   map[int64]map[int64]float64
	userNeigh   map[int64][]rec.Neighbor
	userFactors map[int64][]float64
}

// NewJoinRecommend creates a JOINRECOMMEND operator. recSchema is the
// RECOMMEND side of the output schema.
func NewJoinRecommend(store *rec.ModelStore, outer Operator, outerItemCol int, recSchema *types.Schema) *JoinRecommend {
	return &JoinRecommend{
		Store: store, Outer: outer, OuterItemCol: outerItemCol,
		IncludeSeen: true,
		schema:      recSchema.Concat(outer.Schema()),
	}
}

// Schema implements Operator.
func (j *JoinRecommend) Schema() *types.Schema { return j.schema }

// Open implements Operator.
func (j *JoinRecommend) Open() error {
	if j.Users != nil {
		j.users = j.Users
	} else {
		j.users = j.Store.UserIDs()
	}
	j.userItems = make(map[int64]map[int64]float64, len(j.users))
	j.userNeigh = nil
	j.userFactors = nil
	j.haveOuter = false
	j.ui = 0
	return j.Outer.Open()
}

func (j *JoinRecommend) userState(u int64) (map[int64]float64, error) {
	if items, ok := j.userItems[u]; ok {
		return items, nil
	}
	items, err := j.Store.UserItems(u)
	if err != nil {
		return nil, err
	}
	j.userItems[u] = items
	switch {
	case j.Store.Algo.UserBased():
		if j.userNeigh == nil {
			j.userNeigh = make(map[int64][]rec.Neighbor)
		}
		if j.userNeigh[u], err = j.Store.UserNeighbors(u); err != nil {
			return nil, err
		}
	case j.Store.Algo == rec.SVD:
		if j.userFactors == nil {
			j.userFactors = make(map[int64][]float64)
		}
		if j.userFactors[u], err = j.Store.UserFactors(u); err != nil {
			return nil, err
		}
	}
	return items, nil
}

// Next implements Operator: for each outer tuple, for each user, emit the
// joined row with the predicted (or actual) rating.
func (j *JoinRecommend) Next() (types.Row, bool, error) {
	for {
		if !j.haveOuter {
			row, ok, err := j.Outer.Next()
			if err != nil || !ok {
				return nil, false, err
			}
			j.curOuter = row
			j.haveOuter = true
			j.ui = 0
		}
		if j.ui >= len(j.users) {
			j.haveOuter = false
			continue
		}
		u := j.users[j.ui]
		j.ui++

		itemVal := j.curOuter[j.OuterItemCol]
		item, ok := itemVal.AsInt()
		if !ok {
			continue // NULL or non-numeric join key never matches
		}
		if !j.Store.HasItem(item) {
			// Items with no ratings are unknown to the model; the other
			// recommendation plans never emit them, so neither does this
			// one.
			continue
		}
		items, err := j.userState(u)
		if err != nil {
			return nil, false, err
		}
		var score float64
		if actual, rated := items[item]; rated {
			if !j.IncludeSeen {
				continue
			}
			score = actual
		} else {
			s, ok, err := j.predictFor(u, item, items)
			if err != nil {
				return nil, false, err
			}
			if !ok {
				s = 0
			}
			score = s
		}
		recRow := types.Row{types.NewInt(u), types.NewInt(item), types.NewFloat(score)}
		return recRow.Concat(j.curOuter), true, nil
	}
}

func (j *JoinRecommend) predictFor(u, i int64, userItems map[int64]float64) (float64, bool, error) {
	switch {
	case j.Store.Algo.ItemBased():
		return j.Store.PredictItemBased(i, userItems)
	case j.Store.Algo.UserBased():
		raters, err := j.Store.ItemRaters(i)
		if err != nil {
			return 0, false, err
		}
		s, ok := rec.PredictWeighted(j.userNeigh[u], raters)
		return s, ok, nil
	case j.Store.Algo == rec.Popularity:
		return j.Store.ItemScoreOf(i)
	default:
		q, err := j.Store.ItemFactors(i)
		if err != nil {
			return 0, false, err
		}
		p := j.userFactors[u]
		if p == nil || q == nil {
			return 0, false, nil
		}
		return rec.Dot(p, q), true, nil
	}
}

// Close implements Operator.
func (j *JoinRecommend) Close() error { return j.Outer.Close() }

// ---- INDEXRECOMMEND ----

// IndexRecommend is Algorithm 3: it serves recommendation queries from the
// pre-computed RecScoreIndex. Phase I filters users against the hash
// table, Phase II pushes the rating-value predicate into the RecTree
// traversal, Phase III filters item ids at the leaves. Rows emit in
// descending predicted-rating order per user, so an ORDER BY ratingval
// DESC LIMIT k on top is satisfied without a sort.
type IndexRecommend struct {
	Index *recindex.Index
	// Users is the user-id predicate (uPred); it must be non-empty — the
	// planner only chooses this operator for explicit user filters.
	Users []int64
	// MaxScore, when non-nil, is a pushed-down "ratingval <= x" bound
	// (rPred, Phase II).
	MaxScore *float64
	// ItemFilter, when non-nil, is the item-id predicate (iPred, Phase III).
	ItemFilter func(item int64) bool
	// RatingPred is any residual rating predicate evaluated per entry.
	RatingPred expr.Compiled
	// Limit, when positive, stops after emitting that many rows per user.
	// The planner sets it from ORDER BY ratingval DESC LIMIT k, restoring
	// the early-termination benefit of reading the RecTree in score order.
	Limit int64

	schema *types.Schema

	buf []types.Row
	pos int
}

// NewIndexRecommend creates an INDEXRECOMMEND operator.
func NewIndexRecommend(index *recindex.Index, users []int64, schema *types.Schema) *IndexRecommend {
	return &IndexRecommend{Index: index, Users: users, schema: schema}
}

// Schema implements Operator.
func (ir *IndexRecommend) Schema() *types.Schema { return ir.schema }

// Open implements Operator.
func (ir *IndexRecommend) Open() error {
	if len(ir.Users) == 0 {
		return fmt.Errorf("exec: INDEXRECOMMEND requires a user predicate")
	}
	ir.buf = ir.buf[:0]
	ir.pos = 0
	var evalErr error
	for _, u := range ir.Users { // Phase I
		emitted := int64(0)
		ir.Index.Descend(u, ir.MaxScore, func(e recindex.Entry) bool { // Phase II
			if ir.ItemFilter != nil && !ir.ItemFilter(e.Item) { // Phase III
				return true
			}
			row := types.Row{types.NewInt(u), types.NewInt(e.Item), types.NewFloat(e.Score)}
			if ir.RatingPred != nil {
				v, err := ir.RatingPred(row)
				if err != nil {
					evalErr = err
					return false
				}
				if !expr.Truthy(v) {
					return true
				}
			}
			ir.buf = append(ir.buf, row)
			emitted++
			return ir.Limit <= 0 || emitted < ir.Limit
		})
		if evalErr != nil {
			return evalErr
		}
	}
	return nil
}

// Next implements Operator.
func (ir *IndexRecommend) Next() (types.Row, bool, error) {
	if ir.pos >= len(ir.buf) {
		return nil, false, nil
	}
	row := ir.buf[ir.pos]
	ir.pos++
	return row, true, nil
}

// Close implements Operator.
func (ir *IndexRecommend) Close() error {
	ir.buf = nil
	return nil
}

// CoversUsers reports whether every listed user is materialized in the
// index (the planner's applicability check for INDEXRECOMMEND).
func CoversUsers(ix *recindex.Index, users []int64) bool {
	if len(users) == 0 {
		return false
	}
	for _, u := range users {
		if !ix.HasUser(u) {
			return false
		}
	}
	return true
}
