package rec

import (
	"encoding/base64"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"recdb/internal/ann"
	"recdb/internal/catalog"
	"recdb/internal/storage"
	"recdb/internal/types"
)

// ModelStore is a recommendation model materialized into catalog heap
// tables, the way RecDB stores models inside the database (§IV-A). The
// RECOMMEND operator family reads these tables through the buffer pool:
// itemscore on every read, the rest once per model version — the first
// read of a key's run, or of its factor vector, decodes it from its pages
// and every later read of it, by any scan, gets the same decoded value
// (perKey), as the IVF index is decoded once per store (ANN).
//
// Materialize is the only writer of these tables. It bulk-loads each one in
// key order, every similarity list in ascending id order, and
// publishes a model's tables once, together, when all of them are whole;
// so a key's rows are one physically contiguous run already in list order,
// and a by-name reader sees a complete model or none. The run-keyed tables
// carry no catalog index: the store keeps, per key, the RID its run starts
// at (runDir), and the accessors seek there and read the rest from the heap
// (runReader); they never sort. SQL can read one of these tables, by heap
// scan, but not write or drop it (ModelTableError). A rebuild materializes
// fresh tables into a fresh store; it does not edit these.
//
// Tables per algorithm (all prefixed "_rec_<name>_"):
//
//	all:      uservector        (uid, iid, ratingval)  runs by uid
//	ItemCF:   itemneighborhood  (iid, niid, sim)       runs by iid
//	UserCF:   userneighborhood  (uid, nuid, sim)       runs by uid
//	UserCF:   itemvector        (iid, uid, ratingval)  runs by iid
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
	itemPos posTable // item id → its position in itemIDs

	// The run directories of the run-keyed tables, by user (uservector,
	// userneighborhood) and by item (itemneighborhood, itemvector).
	userVectorRuns, userNeighborRuns runDir
	itemNeighborRuns, itemVectorRuns runDir

	// The decoded factor vectors of userfactor and itemfactor (SVD), by
	// user and by item.
	userVecs, itemVecs perKey[[]float64]

	// symmetric says the itemneighborhood table is its own transpose: no
	// list was truncated, so j is in i's run with similarity s exactly when
	// i is in j's run with the same s — the same bits, because the build
	// computes the pair from each side with the same operands, only
	// multiplied in swapped order, and IEEE multiplication commutes
	// (NeighborhoodModel.cut). The Scorer's user-driven side depends on it.
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
	ml   *modelLoad
	l    *catalog.Loader
	row  types.Row // reused: Loader.Add keeps no reference
	rows int       // rows added so far
	err  error

	// A run-keyed table's directory in the making: starts[p] is the number
	// of the first row added under keys[p], -1 while none has been; at is
	// the position of the current run's key.
	keys   []int64
	starts []int
	at     int
}

// start begins loading the table <prefix><suffix>, expected to take n
// rows, with its primary key on column pk (none when pk < 0).
func (ml *modelLoad) start(suffix string, pk, n int, cols ...types.Column) *tableLoad {
	tl := &tableLoad{ml: ml, row: make(types.Row, len(cols))}
	tl.l, tl.err = ml.cat.NewLoader(ml.prefix+suffix, types.NewSchema(cols...), pk, n)
	return tl
}

// startRuns begins loading a run-keyed table: no primary key and no index,
// its n rows arriving in runs keyed by the first column, in the ascending
// order of keys — the model's userIDs or itemIDs, which the run directory
// finish returns is aligned with. A key may have no run.
func (ml *modelLoad) startRuns(suffix string, keys []int64, n int, cols ...types.Column) *tableLoad {
	tl := ml.start(suffix, -1, n, cols...)
	tl.keys, tl.starts = keys, make([]int, len(keys))
	for p := range tl.starts {
		tl.starts[p] = -1
	}
	return tl
}

// add takes the table's next row.
func (tl *tableLoad) add(row ...types.Value) {
	if tl.err == nil && tl.starts != nil {
		tl.noteKey(row[0].Int())
	}
	if tl.err == nil {
		copy(tl.row, row)
		tl.err = tl.l.Add(tl.row)
		tl.rows++
	}
}

// noteKey records the next row's number as the start of key's run when
// the row opens one. A key that is not the current run's, nor one of keys
// after it, breaks the run order the directory depends on.
func (tl *tableLoad) noteKey(key int64) {
	if tl.at < len(tl.keys) && tl.keys[tl.at] == key && tl.starts[tl.at] >= 0 {
		return // the current run goes on
	}
	for tl.at < len(tl.keys) && tl.keys[tl.at] < key {
		tl.at++
	}
	if tl.at == len(tl.keys) || tl.keys[tl.at] != key || tl.starts[tl.at] >= 0 {
		tl.err = fmt.Errorf("rec: row keyed %d out of run order", key)
		return
	}
	tl.starts[tl.at] = tl.rows
}

// finish builds the table and queues it for publication with the model's
// other tables. For a run-keyed table it also returns the run directory.
func (tl *tableLoad) finish() (*catalog.Table, runDir, error) {
	if tl.err != nil {
		return nil, runDir{}, tl.err
	}
	t, rids, err := tl.l.Finish()
	if err != nil {
		return nil, runDir{}, err
	}
	tl.ml.tables = append(tl.ml.tables, t)
	var dir runDir
	if tl.starts != nil {
		dir.perKey = newPerKey[[]Neighbor](tl.keys)
		dir.first = make([]storage.RID, len(tl.starts))
		for p, r := range tl.starts {
			dir.first[p] = noRun
			if r >= 0 {
				dir.first[p] = rids[r]
			}
		}
	}
	return t, dir, nil
}

// noRun is a run directory's entry for a key with no rows.
var noRun = storage.RID{Page: storage.InvalidPageID}

// runDir is the run directory of a run-keyed model table, which the store
// keeps in place of an index on the table's key: first[p] is the RID of
// the first row of keys[p]'s run, or noRun when that key has no rows. keys
// is the model's userIDs or itemIDs, shared, so a directory costs one RID
// per key and no pointer per row. The perKey holds each run once a read
// has decoded it (rows).
type runDir struct {
	perKey[[]Neighbor]
	first []storage.RID
}

// perKey holds one value per key of keys — a model's userIDs or itemIDs —
// decoded from a model table once per store: decoded[p] is keys[p]'s value
// once a read has decoded it, nil before.
type perKey[T any] struct {
	keys    []int64
	decoded []atomic.Pointer[T]
}

func newPerKey[T any](keys []int64) perKey[T] {
	return perKey[T]{keys: keys, decoded: make([]atomic.Pointer[T], len(keys))}
}

// get returns key's value. The first read decodes it and publishes it;
// every later read gets the published value, with the same bits, and
// fetches no page. The tables never change under a store (Materialize is
// their only writer), so a published value stays right until the store is
// replaced, and goes with it. Two first reads may race: both decode the
// same bytes and either result is kept. A failed decode publishes nothing,
// so every read of that key fails the same way, and a key outside keys
// has no slot: its value is decoded on every read. The values are shared:
// the caller reads them and does not write them.
func (d perKey[T]) get(key int64, decode func(int64) (T, error)) (T, error) {
	p, ok := slices.BinarySearch(d.keys, key)
	if !ok {
		return decode(key)
	}
	if v := d.decoded[p].Load(); v != nil {
		return *v, nil
	}
	v, err := decode(key)
	if err == nil {
		d.decoded[p].CompareAndSwap(nil, &v)
	}
	return v, err
}

// rows returns key's run of t, the table d directs, as (id, value) pairs
// in run order — ascending id — decoded once per store (perKey.get). A run
// has no spare capacity (len == cap), so an append copies.
func (d runDir) rows(t *catalog.Table, key int64) ([]Neighbor, error) {
	return d.get(key, func(key int64) ([]Neighbor, error) { return d.decode(t, key) })
}

// decode reads key's run of t from its pages, through a runReader, into a
// fresh slice with no spare capacity.
func (d runDir) decode(t *catalog.Table, key int64) ([]Neighbor, error) {
	var run []Neighbor
	rr := d.read(t, key)
	for rr.Next() {
		id, val := rr.Row()
		run = append(run, Neighbor{ID: id, Sim: val})
	}
	if err := rr.Close(); err != nil {
		return nil, err
	}
	return slices.Clip(run), nil
}

// read opens key's run of t, the table d directs (see runReader). A key
// the model does not know, or one with no rows, has an empty run.
func (d runDir) read(t *catalog.Table, key int64) runReader {
	rr := runReader{table: t, key: key}
	p, ok := slices.BinarySearch(d.keys, key)
	switch {
	case t == nil:
		rr.err = fmt.Errorf("rec: model has no table for this access path")
	case ok && d.first[p] != noRun:
		rr.cur, rr.open = t.Heap.Cursor(d.first[p]), true
	}
	return rr
}

// runReader reads one key's run of a run-keyed model table — the rows
// whose first column is the key — and yields the two fields after the
// key. It is the one path that decodes a run from its table (runDir.decode,
// under every neighbourhood accessor): a storage.RunCursor starts at the
// run's first row, from the run directory, and walks the heap forward in physical order — the key's
// rows are one contiguous run (see Materialize) — until the key changes,
// pinning each page of the run once and decoding each tuple in place with
// types.DecodeRunRow. The caller owns the loop:
//
//	rr := dir.read(t, key)
//	for rr.Next() {
//		id, val := rr.Row()
//		...
//	}
//	if err := rr.Close(); err != nil { ... }
//
// A tuple in the run that is not a (key, id, value) row ends the read
// with a *RunError rather than a short run.
type runReader struct {
	cur     storage.RunCursor
	open    bool // cur holds a snapshot until Close
	table   *catalog.Table
	key, id int64
	val     float64
	err     error
}

// Next advances to the run's next row. It reports false at the run's end
// or on an error, which Close returns, and releases the cursor then.
func (rr *runReader) Next() bool {
	for rr.open {
		tuple, ok := rr.cur.Next()
		if !ok {
			if rr.cur.Turn() {
				continue
			}
			break
		}
		key, id, val, err := types.DecodeRunRow(tuple)
		if err != nil {
			rr.err = &RunError{Table: rr.table.Name, Key: rr.key, Err: err}
			break
		}
		if key != rr.key {
			break
		}
		rr.id, rr.val = id, val
		return true
	}
	_ = rr.Close() // keeps the error in rr.err for the caller's Close
	return false
}

// Row returns the current row's id and value.
func (rr *runReader) Row() (id int64, val float64) { return rr.id, rr.val }

// Close releases the cursor, if the read has not already, and returns the
// error that ended the read, if any.
func (rr *runReader) Close() error {
	if rr.open {
		rr.open = false
		if rr.err == nil {
			rr.err = rr.cur.Err()
		}
		rr.cur.Close()
	}
	return rr.err
}

// RunError reports a tuple inside a model table's run that is not the
// (key, id, value) row Materialize writes.
type RunError struct {
	Table string // the model table
	Key   int64  // the key whose run was being read
	Err   error  // why the tuple was refused; wraps types.ErrRunRow
}

func (e *RunError) Error() string {
	return fmt.Sprintf("rec: model table %q, run of key %d: %v", e.Table, e.Key, e.Err)
}

func (e *RunError) Unwrap() error { return e.Err }

func intCol(name string) types.Column   { return types.Column{Name: name, Kind: types.KindInt} }
func floatCol(name string) types.Column { return types.Column{Name: name, Kind: types.KindFloat} }
func textCol(name string) types.Column  { return types.Column{Name: name, Kind: types.KindText} }

// neighborhood loads a similarity-list table: each id's list, ids ascending.
func (ml *modelLoad) neighborhood(suffix, key, id string, ids []int64, model *NeighborhoodModel) (*catalog.Table, runDir, error) {
	n := 0
	for _, k := range ids {
		n += len(model.Neighbors(k))
	}
	tl := ml.startRuns(suffix, ids, n, intCol(key), intCol(id), floatCol("sim"))
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
	s.itemPos = newPosTable(s.itemIDs)
	ml := &modelLoad{cat: cat, prefix: prefixFor(recommender)}
	ratings := m.Ratings() // sorted by (user, item)
	var err error

	// uservector, sorted by uid so Algorithm 1's outer scan sees users
	// contiguously.
	uv := ml.startRuns("uservector", s.userIDs, len(ratings), intCol("uid"), intCol("iid"), floatCol("ratingval"))
	for _, r := range ratings {
		uv.add(types.NewInt(r.User), types.NewInt(r.Item), types.NewFloat(r.Value))
	}
	if s.UserVector, s.userVectorRuns, err = uv.finish(); err != nil {
		return nil, err
	}

	switch model := m.(type) {
	case *NeighborhoodModel:
		if model.algo.ItemBased() {
			s.symmetric = !model.cut
			if s.ItemNeighborhood, s.itemNeighborRuns, err = ml.neighborhood("itemneighborhood", "iid", "niid", s.itemIDs, model); err != nil {
				return nil, err
			}
			break
		}
		if s.UserNeighborhood, s.userNeighborRuns, err = ml.neighborhood("userneighborhood", "uid", "nuid", s.userIDs, model); err != nil {
			return nil, err
		}
		iv := ml.startRuns("itemvector", s.itemIDs, len(ratings), intCol("iid"), intCol("uid"), floatCol("ratingval"))
		for p, i := range s.itemIDs {
			for _, r := range model.byItem.run(p) {
				iv.add(types.NewInt(i), types.NewInt(r.ID), types.NewFloat(r.Sim))
			}
		}
		if s.ItemVector, s.itemVectorRuns, err = iv.finish(); err != nil {
			return nil, err
		}
	case *FactorModel:
		s.K = model.K
		s.userVecs, s.itemVecs = newPerKey[[]float64](s.userIDs), newPerKey[[]float64](s.itemIDs)
		uf := ml.start("userfactor", 0, len(s.userIDs), intCol("uid"), textCol("features"))
		for _, u := range s.userIDs {
			uf.add(types.NewInt(u), types.NewText(encodeVec(model.UserFactors[u])))
		}
		if s.UserFactor, _, err = uf.finish(); err != nil {
			return nil, err
		}
		itf := ml.start("itemfactor", 0, len(s.itemIDs), intCol("iid"), textCol("features"))
		for _, i := range s.itemIDs {
			itf.add(types.NewInt(i), types.NewText(encodeVec(model.ItemFactors[i])))
		}
		if s.ItemFactor, _, err = itf.finish(); err != nil {
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
			if s.AnnIVF, _, err = at.finish(); err != nil {
				return nil, err
			}
		}
	case *PopularityModel:
		isc := ml.start("itemscore", 0, len(s.itemIDs), intCol("iid"), floatCol("score"))
		for _, i := range s.itemIDs {
			score, _ := model.Score(i)
			isc.add(types.NewInt(i), types.NewFloat(score))
		}
		if s.ItemScore, _, err = isc.finish(); err != nil {
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
	_, ok := s.itemPos.lookup(i)
	return ok
}

// posTable maps each id of a sorted id list to its position in the list:
// open addressing over a power-of-two slot array at most half full, homed
// by Fibonacci hashing and probed linearly. The Scorer's user-driven side
// looks up every similarity row it reads here, so a probe is one
// multiply, a shift and, mostly, one slot.
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

// UserItems fetches user u's ratings from uservector: the store's decoded
// run (runDir.rows), ascending in item, shared and read-only.
func (s *ModelStore) UserItems(u int64) ([]Neighbor, error) {
	return s.userVectorRuns.rows(s.UserVector, u)
}

// ItemRaters fetches the ratings of item i from itemvector (user-based
// algorithms): the store's decoded run, ascending in user, shared and
// read-only.
func (s *ModelStore) ItemRaters(i int64) ([]Neighbor, error) {
	return s.itemVectorRuns.rows(s.ItemVector, i)
}

// ItemNeighbors fetches item i's similarity list from itemneighborhood,
// in the order it was built: ascending id. The list is the store's
// decoded run (runDir.rows), shared and read-only.
func (s *ModelStore) ItemNeighbors(i int64) ([]Neighbor, error) {
	return s.itemNeighborRuns.rows(s.ItemNeighborhood, i)
}

// UserNeighbors fetches user u's similarity list from userneighborhood,
// in the order it was built: ascending id. The list is the store's
// decoded run (runDir.rows), shared and read-only.
func (s *ModelStore) UserNeighbors(u int64) ([]Neighbor, error) {
	return s.userNeighborRuns.rows(s.UserNeighborhood, u)
}

// PredictItemBased evaluates Equation 2 for item i against a user's
// ratings (UserItems) over i's decoded similarity run (PredictWeighted).
func (s *ModelStore) PredictItemBased(i int64, userItems []Neighbor) (float64, bool, error) {
	run, err := s.ItemNeighbors(i)
	if err != nil {
		return 0, false, err
	}
	score, ok := PredictWeighted(run, userItems)
	return score, ok, nil
}

// UserFactors fetches user u's latent factor vector (SVD), nil when the
// model does not know u. The vector is decoded once per store (perKey),
// shared and read-only.
func (s *ModelStore) UserFactors(u int64) ([]float64, error) {
	return factorsFrom(s.UserFactor, s.userVecs, u)
}

// ItemFactors fetches item i's latent factor vector (SVD), as UserFactors.
func (s *ModelStore) ItemFactors(i int64) ([]float64, error) {
	return factorsFrom(s.ItemFactor, s.itemVecs, i)
}

func factorsFrom(t *catalog.Table, vecs perKey[[]float64], id int64) ([]float64, error) {
	if t == nil {
		return nil, fmt.Errorf("rec: model has no factor tables")
	}
	return vecs.get(id, func(id int64) ([]float64, error) {
		row, _, found, err := t.LookupPK(types.NewInt(id))
		if err != nil || !found {
			return nil, err
		}
		return decodeVec(row[1].Text())
	})
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

// Seen returns the rating user u gave item i, looked up in the user's
// uservector run.
func (s *ModelStore) Seen(u, i int64) (rating float64, found bool, err error) {
	run, err := s.UserItems(u)
	rating, found = ValueOf(run, i)
	return rating, found, err
}
