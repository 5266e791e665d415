package rec

import (
	"strconv"
	"strings"

	"recdb/internal/ann"
	"recdb/internal/types"
)

// ModelStore is a built recommendation model, the one type every reader
// of a model uses: the RECOMMEND operator family, OnTopDB, Evaluate and
// SQL. Build makes it, and nothing writes it afterwards. Every accessor
// reads the model's own structures — the ratings runs, the similarity
// lists, the factor vectors, the IVF index, the popularity scores — so a
// read fetches no page and cannot fail, and the values it returns are
// shared and read-only. A rebuild makes a fresh store; it does not edit
// this one.
//
// RecDB keeps a model as relations (§IV-A), and so does this store, at the
// SQL interface: each table below is a read-only relation named
// _rec_<recommender>_<table>, its rows produced from the model in key
// order, each key's rows ascending in id (Relation). SQL can read one but
// not write or drop it (ModelTableError).
//
// Relations per algorithm:
//
//	all:      uservector        (uid, iid, ratingval)  runs by uid
//	ItemCF:   itemneighborhood  (iid, niid, sim)       runs by iid
//	UserCF:   userneighborhood  (uid, nuid, sim)       runs by uid
//	UserCF:   itemvector        (iid, uid, ratingval)  runs by iid
//	SVD:      userfactor        (uid, features)
//	SVD:      itemfactor        (iid, features)
//	Popularity: itemscore       (iid, score)
type ModelStore struct {
	Algo Algorithm

	ratings *ratingsIndex // uservector and itemvector runs

	// The similarity lists, one run per item (item-based) or per user
	// (user-based) in ItemIDs' or UserIDs' order, each ascending in id,
	// with each neighbour's position in the at column; the zero runSet
	// for the other side.
	itemLists, userLists runSet

	userVecs, itemVecs map[int64][]float64 // SVD factor vectors
	ivf                *ann.Index          // SVD: IVF index over itemVecs
	scores             map[int64]float64   // Popularity item scores

	itemPos posTable // item id → its position in ItemIDs
}

// prefixFor builds the reserved relation-name prefix for a recommender.
func prefixFor(recommender string) string {
	return "_rec_" + strings.ToLower(recommender) + "_"
}

// modelTables are the relation-name suffixes a recommender can own.
var modelTables = []string{
	"uservector", "itemneighborhood", "userneighborhood",
	"itemvector", "userfactor", "itemfactor", "itemscore",
}

// Relation is one of a model's SQL relations: read-only rows produced from
// the model on demand, a key at a time, in the order Keys lists them.
type Relation struct {
	Name   string
	Schema *types.Schema
	keys   []int64
	rows   func(key int64) []types.Row
	n      int64
}

// Keys returns how many keys the relation's rows are grouped under.
func (r *Relation) Keys() int { return len(r.keys) }

// Rows returns the rows of the relation's p-th key, ascending in id,
// freshly made: the caller may keep them.
func (r *Relation) Rows(p int) []types.Row { return r.rows(r.keys[p]) }

// Len returns the relation's row count.
func (r *Relation) Len() int64 { return r.n }

func intCol(name string) types.Column   { return types.Column{Name: name, Kind: types.KindInt} }
func floatCol(name string) types.Column { return types.Column{Name: name, Kind: types.KindFloat} }
func textCol(name string) types.Column  { return types.Column{Name: name, Kind: types.KindText} }

// relation returns the store's relation with the given suffix, unnamed,
// or nil when the model has no such table.
func (s *ModelStore) relation(suffix string) *Relation {
	users, items := s.UserIDs(), s.ItemIDs()
	switch {
	case suffix == "uservector":
		return runRelation(users, s.UserItems, intCol("uid"), intCol("iid"), floatCol("ratingval"))
	case suffix == "itemneighborhood" && s.itemLists.built():
		return runRelation(items, s.ItemNeighbors, intCol("iid"), intCol("niid"), floatCol("sim"))
	case suffix == "userneighborhood" && s.userLists.built():
		return runRelation(users, s.UserNeighbors, intCol("uid"), intCol("nuid"), floatCol("sim"))
	case suffix == "itemvector" && s.userLists.built():
		return runRelation(items, s.ItemRaters, intCol("iid"), intCol("uid"), floatCol("ratingval"))
	case suffix == "userfactor" && s.userVecs != nil:
		return vecRelation(users, s.UserFactors, intCol("uid"))
	case suffix == "itemfactor" && s.itemVecs != nil:
		return vecRelation(items, s.ItemFactors, intCol("iid"))
	case suffix == "itemscore" && s.scores != nil:
		return keyedRelation(items, func(i int64) types.Value { return types.NewFloat(s.scores[i]) }, intCol("iid"), floatCol("score"))
	}
	return nil
}

// runRelation is a relation of (key, id, value) rows: each key's run.
func runRelation(keys []int64, run func(int64) []Neighbor, cols ...types.Column) *Relation {
	r := &Relation{Schema: types.NewSchema(cols...), keys: keys}
	r.rows = func(key int64) []types.Row {
		nbs := run(key)
		rows := make([]types.Row, len(nbs))
		for x, nb := range nbs {
			rows[x] = types.Row{types.NewInt(key), types.NewInt(nb.ID), types.NewFloat(nb.Sim)}
		}
		return rows
	}
	for _, key := range keys {
		r.n += int64(len(run(key)))
	}
	return r
}

// keyedRelation is a relation of one (key, value) row per key.
func keyedRelation(keys []int64, value func(int64) types.Value, key, val types.Column) *Relation {
	return &Relation{
		Schema: types.NewSchema(key, val),
		keys:   keys,
		rows:   func(k int64) []types.Row { return []types.Row{{types.NewInt(k), value(k)}} },
		n:      int64(len(keys)),
	}
}

// vecRelation is a factor relation: each key's vector as encodeVec's text.
func vecRelation(keys []int64, vec func(int64) []float64, key types.Column) *Relation {
	return keyedRelation(keys, func(k int64) types.Value { return types.NewText(encodeVec(vec(k))) }, key, textCol("features"))
}

// encodeVec renders a factor vector as comma-separated shortest-form
// floats, which parse back to the same bits.
func encodeVec(v []float64) string {
	parts := make([]string, len(v))
	for i, f := range v {
		parts[i] = strconv.FormatFloat(f, 'g', -1, 64)
	}
	return strings.Join(parts, ",")
}

// UserIDs returns all user ids known to the model, ascending.
func (s *ModelStore) UserIDs() []int64 { return s.ratings.users }

// ItemIDs returns all item ids known to the model, ascending.
func (s *ModelStore) ItemIDs() []int64 { return s.ratings.items }

// HasItem reports whether the model knows item i (i.e. it had at least one
// rating when the model was built).
func (s *ModelStore) HasItem(i int64) bool {
	_, ok := s.itemPos.lookup(i)
	return ok
}

// posTable maps each id of a sorted id list to its position in the list:
// open addressing over a power-of-two slot array at most half full, homed
// by Fibonacci hashing and probed linearly. A wide scan looks up each of
// its candidates here once, so a probe is one multiply, a shift and,
// mostly, one slot.
type posTable struct {
	slots []posSlot
	shift uint // 64 − log2(len(slots)): keeps a hash's top bits
}

// posSlot is one slot of a posTable; at is the position plus one, so the
// zero slot is empty.
type posSlot struct {
	id int64
	at int32
}

func newPosTable(ids []int64) posTable {
	bits := uint(1)
	for 1<<bits < 2*len(ids) {
		bits++
	}
	t := posTable{slots: make([]posSlot, 1<<bits), shift: 64 - bits}
	for p, id := range ids {
		h := t.home(id)
		for t.slots[h].at != 0 {
			h = (h + 1) & (len(t.slots) - 1)
		}
		t.slots[h] = posSlot{id: id, at: int32(p) + 1}
	}
	return t
}

// home is id's first slot: the top bits of id times 2⁶⁴/φ.
func (t posTable) home(id int64) int {
	return int(uint64(id) * 0x9E3779B97F4A7C15 >> t.shift)
}

// lookup returns id's position, if the table holds id.
func (t posTable) lookup(id int64) (int32, bool) {
	for h := t.home(id); ; h = (h + 1) & (len(t.slots) - 1) {
		switch s := t.slots[h]; {
		case s.at == 0:
			return 0, false
		case s.id == id:
			return s.at - 1, true
		}
	}
}

// UserItems returns user u's ratings (uservector's run), ascending in
// item; empty for a user the model does not know.
func (s *ModelStore) UserItems(u int64) []Neighbor { return s.ratings.userRun(u) }

// ItemRaters returns the ratings of item i (itemvector's run), ascending
// in user.
func (s *ModelStore) ItemRaters(i int64) []Neighbor { return s.ratings.itemRun(i) }

// ItemNeighbors returns item i's similarity list (item-based models), in
// the order it was built: ascending id; nil when the model has no such
// list. The list has no spare capacity (len == cap), so an append copies
// it.
func (s *ModelStore) ItemNeighbors(i int64) []Neighbor {
	if !s.itemLists.built() {
		return nil
	}
	if p, ok := s.itemPos.lookup(i); ok {
		return s.itemLists.run(int(p))
	}
	return nil
}

// UserNeighbors returns user u's similarity list (user-based models), as
// ItemNeighbors.
func (s *ModelStore) UserNeighbors(u int64) []Neighbor {
	if !s.userLists.built() {
		return nil
	}
	return s.userLists.find(s.ratings.users, u)
}

// PredictItemBased evaluates Equation 2 for item i against a user's
// ratings (UserItems) over i's similarity list (PredictWeighted).
func (s *ModelStore) PredictItemBased(i int64, userItems []Neighbor) (float64, bool) {
	return PredictWeighted(s.ItemNeighbors(i), userItems)
}

// UserFactors returns user u's latent factor vector (SVD), nil when the
// model does not know u.
func (s *ModelStore) UserFactors(u int64) []float64 { return s.userVecs[u] }

// ItemFactors returns item i's latent factor vector (SVD), as UserFactors.
func (s *ModelStore) ItemFactors(i int64) []float64 { return s.itemVecs[i] }

// ANN returns the model's IVF index over the item factors, nil when the
// model has none (non-SVD algorithms, or no items); callers then use the
// exact scan.
func (s *ModelStore) ANN() *ann.Index { return s.ivf }

// ItemScoreOf returns an item's non-personalized score (Popularity).
func (s *ModelStore) ItemScoreOf(i int64) (float64, bool) {
	score, ok := s.scores[i]
	return score, ok
}

// Seen returns the rating user u gave item i, looked up in the user's
// uservector run.
func (s *ModelStore) Seen(u, i int64) (rating float64, found bool) {
	return ValueOf(s.UserItems(u), i)
}
