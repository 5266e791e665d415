package rec

import (
	"encoding/base64"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"

	"recdb/internal/ann"
	"recdb/internal/catalog"
	"recdb/internal/storage"
	"recdb/internal/types"
)

// ModelStore is a recommendation model materialized into catalog heap
// tables, the way RecDB stores models inside the database (§IV-A). The
// RECOMMEND operator family reads these tables through the buffer pool, so
// model access is page I/O like any other relational access path.
//
// Materialize is the only writer of these tables. It bulk-loads each one in
// key order, every similarity list in (|sim| desc, id asc) order, and
// publishes a model's tables once, together, when all of them are whole;
// so a key's rows are one physically contiguous run already in list order,
// and a by-name reader sees a complete model or none. The neighbourhood
// accessors depend on the first: they seek a run's first row through the
// index and read the rest from the heap (scanRun), and they never sort. A
// rebuild materializes fresh tables; it does not edit these.
//
// Tables per algorithm (all prefixed "_rec_<name>_"):
//
//	all:      uservector        (uid, iid, ratingval)  sorted by uid, indexed on uid
//	ItemCF:   itemneighborhood  (iid, niid, sim)       sorted by iid, indexed on iid
//	UserCF:   userneighborhood  (uid, nuid, sim)       sorted by uid, indexed on uid
//	UserCF:   itemvector        (iid, uid, ratingval)  sorted by iid, indexed on iid
//	SVD:      userfactor        (uid pk, features)
//	SVD:      itemfactor        (iid pk, features)
//	SVD:      annivf            (seq pk, chunk)  serialized IVF index
//	Popularity: itemscore       (iid pk, score)
type ModelStore struct {
	Algo             Algorithm
	UserVector       *catalog.Table
	ItemNeighborhood *catalog.Table
	UserNeighborhood *catalog.Table
	ItemVector       *catalog.Table
	UserFactor       *catalog.Table
	ItemFactor       *catalog.Table
	ItemScore        *catalog.Table
	AnnIVF           *catalog.Table
	K                int // SVD factor count

	userIDs []int64
	itemIDs []int64
	itemPos map[int64]int32 // item id → its position in itemIDs
	// symmetric says the itemneighborhood table is its own transpose: no
	// list was truncated, so j is in i's run with similarity s exactly when
	// i is in j's run with the same s. The Scorer's user-driven side
	// depends on it.
	symmetric bool

	// Lazily decoded IVF index; decoding from the annivf table on first
	// use (rather than carrying the in-memory build product) means every
	// fresh store — including one rebuilt by crash recovery — exercises
	// the persisted bytes, and a corrupt blob is detected here and served
	// as "no index" so the planner falls back to the exact scan.
	annMu   sync.Mutex
	ann     *ann.Index
	annErr  error
	annDone bool
}

// prefixFor builds the reserved table-name prefix for a recommender.
func prefixFor(recommender string) string {
	return "_rec_" + strings.ToLower(recommender) + "_"
}

// modelTables are the table-name suffixes a recommender can own.
var modelTables = []string{
	"uservector", "itemneighborhood", "userneighborhood",
	"itemvector", "userfactor", "itemfactor", "itemscore", "annivf",
}

// tableNames lists every table name the named recommender can own.
func tableNames(recommender string) []string {
	names := make([]string, len(modelTables))
	for i, suffix := range modelTables {
		names[i] = prefixFor(recommender) + suffix
	}
	return names
}

// modelLoad bulk-loads the tables of one model, detached from the catalog.
type modelLoad struct {
	cat    *catalog.Catalog
	prefix string
	tables []*catalog.Table // finished, awaiting Publish
}

// tableLoad is one model table being loaded. Its first error sticks and
// surfaces from finish, so the loops that feed it rows do not check each
// add.
type tableLoad struct {
	ml  *modelLoad
	l   *catalog.Loader
	row types.Row // reused: Loader.Add keeps no reference
	err error
}

// start begins loading the table <prefix><suffix>, expected to take n
// rows in key order. With pk < 0 the table is indexed on its first column —
// the key its runs are found by — under the name <table>_<column>.
func (ml *modelLoad) start(suffix string, pk, n int, cols ...types.Column) *tableLoad {
	name := ml.prefix + suffix
	tl := &tableLoad{ml: ml, row: make(types.Row, len(cols))}
	tl.l, tl.err = ml.cat.NewLoader(name, types.NewSchema(cols...), pk, n)
	if tl.err == nil && pk < 0 {
		tl.err = tl.l.Index(name+"_"+cols[0].Name, cols[0].Name)
	}
	return tl
}

// add takes the table's next row.
func (tl *tableLoad) add(row ...types.Value) {
	if tl.err == nil {
		copy(tl.row, row)
		tl.err = tl.l.Add(tl.row)
	}
}

// finish builds the table and queues it for publication with the model's
// other tables.
func (tl *tableLoad) finish() (*catalog.Table, error) {
	if tl.err != nil {
		return nil, tl.err
	}
	t, err := tl.l.Finish()
	if err != nil {
		return nil, err
	}
	tl.ml.tables = append(tl.ml.tables, t)
	return t, nil
}

func intCol(name string) types.Column   { return types.Column{Name: name, Kind: types.KindInt} }
func floatCol(name string) types.Column { return types.Column{Name: name, Kind: types.KindFloat} }
func textCol(name string) types.Column  { return types.Column{Name: name, Kind: types.KindText} }

// neighborhood loads a similarity-list table: each id's list, ids ascending.
func (ml *modelLoad) neighborhood(suffix, key, id string, ids []int64, model *NeighborhoodModel) (*catalog.Table, error) {
	n := 0
	for _, k := range ids {
		n += len(model.Neighbors(k))
	}
	tl := ml.start(suffix, -1, n, intCol(key), intCol(id), floatCol("sim"))
	for _, k := range ids {
		for _, nb := range model.Neighbors(k) {
			tl.add(types.NewInt(k), types.NewInt(nb.ID), types.NewFloat(nb.Sim))
		}
	}
	return tl.finish()
}

// Materialize writes a built model into fresh catalog tables owned by the
// named recommender. The tables are loaded off to the side and replace any
// previous materialization in one catalog generation; on error the
// previous tables stay as they were.
func Materialize(cat *catalog.Catalog, recommender string, m Model) (*ModelStore, error) {
	s := &ModelStore{Algo: m.Algorithm(), userIDs: m.Users(), itemIDs: m.Items()}
	s.itemPos = make(map[int64]int32, len(s.itemIDs))
	for p, i := range s.itemIDs {
		s.itemPos[i] = int32(p)
	}
	ml := &modelLoad{cat: cat, prefix: prefixFor(recommender)}
	ratings := m.Ratings() // sorted by (user, item)
	var err error

	// uservector, sorted by uid so Algorithm 1's outer scan sees users
	// contiguously.
	uv := ml.start("uservector", -1, len(ratings), intCol("uid"), intCol("iid"), floatCol("ratingval"))
	for _, r := range ratings {
		uv.add(types.NewInt(r.User), types.NewInt(r.Item), types.NewFloat(r.Value))
	}
	if s.UserVector, err = uv.finish(); err != nil {
		return nil, err
	}

	switch model := m.(type) {
	case *NeighborhoodModel:
		if model.algo.ItemBased() {
			s.symmetric = !model.cut
			if s.ItemNeighborhood, err = ml.neighborhood("itemneighborhood", "iid", "niid", s.itemIDs, model); err != nil {
				return nil, err
			}
			break
		}
		if s.UserNeighborhood, err = ml.neighborhood("userneighborhood", "uid", "nuid", s.userIDs, model); err != nil {
			return nil, err
		}
		byItem := make(map[int64][]Rating)
		for _, r := range ratings {
			byItem[r.Item] = append(byItem[r.Item], r)
		}
		iv := ml.start("itemvector", -1, len(ratings), intCol("iid"), intCol("uid"), floatCol("ratingval"))
		for _, i := range s.itemIDs {
			for _, r := range byItem[i] {
				iv.add(types.NewInt(i), types.NewInt(r.User), types.NewFloat(r.Value))
			}
		}
		if s.ItemVector, err = iv.finish(); err != nil {
			return nil, err
		}
	case *FactorModel:
		s.K = model.K
		uf := ml.start("userfactor", 0, len(s.userIDs), intCol("uid"), textCol("features"))
		for _, u := range s.userIDs {
			uf.add(types.NewInt(u), types.NewText(encodeVec(model.UserFactors[u])))
		}
		if s.UserFactor, err = uf.finish(); err != nil {
			return nil, err
		}
		itf := ml.start("itemfactor", 0, len(s.itemIDs), intCol("iid"), textCol("features"))
		for _, i := range s.itemIDs {
			itf.add(types.NewInt(i), types.NewText(encodeVec(model.ItemFactors[i])))
		}
		if s.ItemFactor, err = itf.finish(); err != nil {
			return nil, err
		}
		if model.IVF != nil && model.IVF.NumCentroids() > 0 {
			enc := base64.StdEncoding.EncodeToString(model.IVF.Encode())
			const chunkLen = 4096
			at := ml.start("annivf", 0, (len(enc)+chunkLen-1)/chunkLen, intCol("seq"), textCol("chunk"))
			for seq := 0; len(enc) > 0; seq++ {
				n := min(chunkLen, len(enc))
				at.add(types.NewInt(int64(seq)), types.NewText(enc[:n]))
				enc = enc[n:]
			}
			if s.AnnIVF, err = at.finish(); err != nil {
				return nil, err
			}
		}
	case *PopularityModel:
		isc := ml.start("itemscore", 0, len(s.itemIDs), intCol("iid"), floatCol("score"))
		for _, i := range s.itemIDs {
			score, _ := model.Score(i)
			isc.add(types.NewInt(i), types.NewFloat(score))
		}
		if s.ItemScore, err = isc.finish(); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("rec: cannot materialize model type %T", m)
	}
	if err := cat.Publish(ml.tables, tableNames(recommender)); err != nil {
		return nil, err
	}
	return s, nil
}

// DropTables removes every materialized table owned by the named
// recommender, in one catalog generation. Missing tables are ignored.
func DropTables(cat *catalog.Catalog, recommender string) {
	// Publish fails only on a name clash among added tables; none are added.
	_ = cat.Publish(nil, tableNames(recommender))
}

func encodeVec(v []float64) string {
	parts := make([]string, len(v))
	for i, f := range v {
		parts[i] = strconv.FormatFloat(f, 'g', -1, 64)
	}
	return strings.Join(parts, ",")
}

func decodeVec(s string) ([]float64, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	out := make([]float64, len(parts))
	for i, p := range parts {
		f, err := strconv.ParseFloat(p, 64)
		if err != nil {
			return nil, fmt.Errorf("rec: bad factor vector: %w", err)
		}
		out[i] = f
	}
	return out, nil
}

// UserIDs returns all user ids known to the model, ascending.
func (s *ModelStore) UserIDs() []int64 { return s.userIDs }

// ItemIDs returns all item ids known to the model, ascending.
func (s *ModelStore) ItemIDs() []int64 { return s.itemIDs }

// HasItem reports whether the model knows item i (i.e. it had at least one
// rating when the model was built).
func (s *ModelStore) HasItem(i int64) bool {
	_, ok := s.itemPos[i]
	return ok
}

// scanRun visits the rows of t whose key column (col, the table's first)
// equals key, passing fn the two fields that follow it. It is the one read
// path under every neighbourhood accessor: the index on col finds the
// key's first RID, then a snapshot iterator walks the heap forward in
// physical order — the key's rows are one contiguous run (see Materialize)
// — until the key changes or fn returns false, pinning each page of the
// run once and decoding fields straight from the tuple bytes.
func scanRun(t *catalog.Table, col string, key int64, fn func(id int64, val float64) bool) error {
	if t == nil {
		return fmt.Errorf("rec: model has no table keyed by %s", col)
	}
	idx, ok := t.IndexOn(col)
	if !ok {
		return fmt.Errorf("rec: table %q has no %s index", t.Name, col)
	}
	var first storage.RID
	found := false
	bound := types.NewInt(key)
	t.ScanIndexRange(idx, bound, bound, func(rid storage.RID) bool {
		first, found = rid, true
		return false
	})
	if !found {
		return nil
	}
	it := t.Heap.Scan()
	defer it.Close()
	it.Seek(first)
	for {
		tuple, _, ok, err := it.NextTuple()
		if err != nil || !ok {
			return err
		}
		r := types.ReadTuple(tuple)
		k, id, val := r.Int(), r.Int(), r.Float()
		if err := r.Err(); err != nil {
			return fmt.Errorf("rec: table %q: %w", t.Name, err)
		}
		if k != key || !fn(id, val) {
			return nil
		}
	}
}

// ratingsRun collects one key's run of a (key, id, ratingval) table.
func ratingsRun(t *catalog.Table, col string, key int64) (map[int64]float64, error) {
	out := make(map[int64]float64)
	err := scanRun(t, col, key, func(id int64, rating float64) bool {
		out[id] = rating
		return true
	})
	return out, err
}

// UserItems fetches user u's rated items (iid → rating) from uservector.
func (s *ModelStore) UserItems(u int64) (map[int64]float64, error) {
	return ratingsRun(s.UserVector, "uid", u)
}

// ItemRaters fetches the users who rated item i (uid → rating) from
// itemvector (user-based algorithms).
func (s *ModelStore) ItemRaters(i int64) (map[int64]float64, error) {
	return ratingsRun(s.ItemVector, "iid", i)
}

// ItemNeighbors fetches item i's similarity list from itemneighborhood,
// in the order it was built: descending |sim|, then ascending id.
func (s *ModelStore) ItemNeighbors(i int64) ([]Neighbor, error) {
	return neighborsRun(s.ItemNeighborhood, "iid", i)
}

// UserNeighbors fetches user u's similarity list from userneighborhood,
// in the order it was built: descending |sim|, then ascending id.
func (s *ModelStore) UserNeighbors(u int64) ([]Neighbor, error) {
	return neighborsRun(s.UserNeighborhood, "uid", u)
}

func neighborsRun(t *catalog.Table, col string, id int64) ([]Neighbor, error) {
	var out []Neighbor
	err := scanRun(t, col, id, func(n int64, sim float64) bool {
		out = append(out, Neighbor{ID: n, Sim: sim})
		return true
	})
	return out, err
}

// PredictItemBased evaluates Equation 2 for item i against a user's rated
// items by streaming i's similarity run past them, in list order, so the
// sum is bit-identical to PredictWeighted over ItemNeighbors(i) without
// the list being built.
func (s *ModelStore) PredictItemBased(i int64, userItems map[int64]float64) (float64, bool, error) {
	var sum weightedSum
	err := scanRun(s.ItemNeighborhood, "iid", i, func(n int64, sim float64) bool {
		if r, ok := userItems[n]; ok {
			sum.add(sim, r)
		}
		return true
	})
	if err != nil {
		return 0, false, err
	}
	score, ok := sum.score()
	return score, ok, nil
}

// UserFactors fetches user u's latent factor vector (SVD).
func (s *ModelStore) UserFactors(u int64) ([]float64, error) {
	return s.factorsFrom(s.UserFactor, u)
}

// ItemFactors fetches item i's latent factor vector (SVD).
func (s *ModelStore) ItemFactors(i int64) ([]float64, error) {
	return s.factorsFrom(s.ItemFactor, i)
}

func (s *ModelStore) factorsFrom(t *catalog.Table, id int64) ([]float64, error) {
	if t == nil {
		return nil, fmt.Errorf("rec: model has no factor tables")
	}
	row, _, found, err := t.LookupPK(types.NewInt(id))
	if err != nil {
		return nil, err
	}
	if !found {
		return nil, nil
	}
	return decodeVec(row[1].Text())
}

// ANN returns the model's IVF index over item latent factors, decoding
// the annivf table on first use. It returns (nil, nil) when the model has
// no index (non-SVD algorithms) and (nil, err) when the persisted blob is
// corrupt; callers treat nil as "use the exact scan". The decode result is
// cached, so a corrupt index reports its error once per store and then
// keeps falling back.
func (s *ModelStore) ANN() (*ann.Index, error) {
	if s.AnnIVF == nil {
		return nil, nil
	}
	s.annMu.Lock()
	defer s.annMu.Unlock()
	if s.annDone {
		return s.ann, s.annErr
	}
	s.annDone = true
	s.ann, s.annErr = s.decodeANN()
	return s.ann, s.annErr
}

// decodeANN reassembles the base64 chunks of the annivf table in seq order
// and decodes the CRC-framed index.
func (s *ModelStore) decodeANN() (*ann.Index, error) {
	type chunk struct {
		seq  int64
		text string
	}
	var chunks []chunk
	it := s.AnnIVF.Heap.Scan()
	defer it.Close()
	for {
		row, _, ok, err := it.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		chunks = append(chunks, chunk{row[0].Int(), row[1].Text()})
	}
	sort.Slice(chunks, func(a, b int) bool { return chunks[a].seq < chunks[b].seq })
	var enc strings.Builder
	for i, c := range chunks {
		if c.seq != int64(i) {
			return nil, fmt.Errorf("rec: ann index chunk sequence broken at %d (seq %d)", i, c.seq)
		}
		enc.WriteString(c.text)
	}
	blob, err := base64.StdEncoding.DecodeString(enc.String())
	if err != nil {
		return nil, fmt.Errorf("rec: ann index chunks undecodable: %w", err)
	}
	return ann.Decode(blob)
}

// ItemScoreOf fetches an item's non-personalized score (Popularity).
func (s *ModelStore) ItemScoreOf(i int64) (float64, bool, error) {
	if s.ItemScore == nil {
		return 0, false, fmt.Errorf("rec: model has no itemscore table")
	}
	row, _, found, err := s.ItemScore.LookupPK(types.NewInt(i))
	if err != nil || !found {
		return 0, false, err
	}
	return row[1].Float(), true, nil
}

// Seen returns the rating user u gave item i, looked up in the uservector
// table.
func (s *ModelStore) Seen(u, i int64) (rating float64, found bool, err error) {
	err = scanRun(s.UserVector, "uid", u, func(item int64, r float64) bool {
		if item == i {
			rating, found = r, true
		}
		return !found
	})
	return rating, found, err
}
