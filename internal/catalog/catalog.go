// Package catalog manages the database's tables and indexes: schemas, heap
// storage, primary-key enforcement, and secondary index maintenance. A
// recommender's model is not a catalog table: the planner resolves a
// model relation's name through the recommendation layer when the catalog
// does not have it.
package catalog

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"recdb/internal/btree"
	"recdb/internal/geo"
	"recdb/internal/storage"
	"recdb/internal/types"
)

// DefaultPoolPages is the buffer-pool capacity per table when the caller
// does not override it (512 pages = 4 MiB, comfortably larger than any
// single experiment table so steady-state runs are warm, as in the paper).
const DefaultPoolPages = 512

// Catalog is the table registry. All methods are safe for concurrent use.
// The table map is published copy-on-write through an atomic pointer:
// lookups on the query path are a single atomic load and never contend
// with DDL, which clones the map under mu and swaps the new generation in.
type Catalog struct {
	mu        sync.Mutex // serializes table-map writers (DDL)
	tables    atomic.Pointer[map[string]*Table]
	stats     *storage.Stats
	poolPages int
}

// New creates an empty catalog. stats may be nil; poolPages <= 0 selects
// DefaultPoolPages.
func New(stats *storage.Stats, poolPages int) *Catalog {
	if stats == nil {
		stats = &storage.Stats{}
	}
	if poolPages <= 0 {
		poolPages = DefaultPoolPages
	}
	c := &Catalog{
		stats:     stats,
		poolPages: poolPages,
	}
	empty := make(map[string]*Table)
	c.tables.Store(&empty)
	return c
}

// Stats returns the shared I/O counters.
func (c *Catalog) Stats() *storage.Stats { return c.stats }

// Table is one relation: schema, heap, and indexes.
type Table struct {
	mu      sync.RWMutex
	Name    string
	Schema  *types.Schema
	Heap    *storage.HeapFile
	PKCol   int // column index of the primary key, or -1
	indexes map[string]*Index
}

// Index is a secondary (or primary) index over one column. For ordinary
// columns the B+-tree key is (column value, page, slot) so duplicate
// column values coexist, and the tree value is the row's RID. GEOMETRY
// columns get an R-tree instead (Spatial is non-nil, Tree is nil), the
// PostGIS-GiST stand-in used by the location-aware case study.
type Index struct {
	Name    string
	Column  int // position in the table schema
	Unique  bool
	Tree    *btree.Tree
	Spatial *geo.RTree
}

// CreateTable registers a new, empty table. pkCol is the index of the
// primary-key column or -1. A primary key implicitly creates a unique index.
func (c *Catalog) CreateTable(name string, schema *types.Schema, pkCol int) (*Table, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	key := strings.ToLower(name)
	if _, exists := (*c.tables.Load())[key]; exists {
		return nil, fmt.Errorf("catalog: table %q already exists", name)
	}
	t, err := c.newTable(name, schema, pkCol)
	if err != nil {
		return nil, err
	}
	c.publishLocked(func(m map[string]*Table) { m[key] = t })
	return t, nil
}

// newTable builds an empty table over a fresh heap without registering it.
func (c *Catalog) newTable(name string, schema *types.Schema, pkCol int) (*Table, error) {
	if pkCol >= schema.Len() {
		return nil, fmt.Errorf("catalog: primary key column %d out of range", pkCol)
	}
	pool := storage.NewBufferPool(storage.NewMemDisk(), c.poolPages, c.stats)
	t := &Table{
		Name:    name,
		Schema:  schema,
		Heap:    storage.NewHeapFile(pool),
		PKCol:   pkCol,
		indexes: make(map[string]*Index),
	}
	if pkCol >= 0 {
		t.indexes[strings.ToLower(schema.Columns[pkCol].Name)] = &Index{
			Name:   name + "_pkey",
			Column: pkCol,
			Unique: true,
			Tree:   btree.New(0),
		}
	}
	return t, nil
}

// Publish registers tables built off to the side (Loader.Finish) in one
// catalog generation: a by-name reader sees every one of them or none, and
// never a table that is still being filled. Each name must be free and be
// added once; on refusal nothing is registered.
func (c *Catalog) Publish(add []*Table) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	cur := *c.tables.Load()
	added := make(map[string]bool, len(add))
	for _, t := range add {
		key := strings.ToLower(t.Name)
		if _, exists := cur[key]; exists || added[key] {
			return fmt.Errorf("catalog: table %q already exists", t.Name)
		}
		added[key] = true
	}
	c.publishLocked(func(m map[string]*Table) {
		for _, t := range add {
			m[strings.ToLower(t.Name)] = t
		}
	})
	return nil
}

// DropTable removes a table.
func (c *Catalog) DropTable(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	key := strings.ToLower(name)
	if _, exists := (*c.tables.Load())[key]; !exists {
		return fmt.Errorf("catalog: table %q does not exist", name)
	}
	c.publishLocked(func(m map[string]*Table) { delete(m, key) })
	return nil
}

// publishLocked clones the current table map, applies mutate, and swaps
// the new generation in. Caller holds mu.
func (c *Catalog) publishLocked(mutate func(map[string]*Table)) {
	cur := *c.tables.Load()
	next := make(map[string]*Table, len(cur)+1)
	for k, v := range cur {
		next[k] = v
	}
	mutate(next)
	c.tables.Store(&next)
}

// Get returns the table with the given name (case-insensitive).
func (c *Catalog) Get(name string) (*Table, error) {
	t, ok := (*c.tables.Load())[strings.ToLower(name)]
	if !ok {
		return nil, fmt.Errorf("catalog: table %q does not exist", name)
	}
	return t, nil
}

// Has reports whether a table exists.
func (c *Catalog) Has(name string) bool {
	_, ok := (*c.tables.Load())[strings.ToLower(name)]
	return ok
}

// Names returns all table names, unordered.
func (c *Catalog) Names() []string {
	cur := *c.tables.Load()
	out := make([]string, 0, len(cur))
	for _, t := range cur {
		out = append(out, t.Name)
	}
	return out
}

// appendKey appends to dst the index key of a row whose indexed column
// holds val and which lives at rid: (value, page, slot) in an ordinary
// index, so equal values coexist; the bare value in a unique index, and in
// a spatial one, whose R-tree takes the geometry alone.
func (idx *Index) appendKey(dst types.Row, val types.Value, rid storage.RID) types.Row {
	if idx.keyWidth() == 1 {
		return append(dst, val)
	}
	return append(dst, val, types.NewInt(int64(rid.Page)), types.NewInt(int64(rid.Slot)))
}

// keyWidth is the number of fields appendKey appends.
func (idx *Index) keyWidth() int {
	if idx.Unique || idx.Spatial != nil {
		return 1
	}
	return 3
}

// Insert validates the row against the schema, enforces the primary key,
// stores the row, and maintains all indexes.
func (t *Table) Insert(row types.Row) (storage.RID, error) {
	if err := t.checkRow(row); err != nil {
		return storage.RID{}, err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.PKCol >= 0 {
		pk := t.pkIndexLocked()
		if _, exists := pk.Tree.Get(types.Row{row[t.PKCol]}); exists {
			return storage.RID{}, fmt.Errorf("catalog: duplicate primary key %v in table %q", row[t.PKCol], t.Name)
		}
	}
	rid, err := t.Heap.Insert(row)
	if err != nil {
		return storage.RID{}, err
	}
	for _, idx := range t.indexes {
		idx.add(row, rid)
	}
	return rid, nil
}

// Delete removes the row at rid and its index entries.
func (t *Table) Delete(rid storage.RID) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	row, err := t.Heap.Get(rid)
	if err != nil {
		return err
	}
	if err := t.Heap.Delete(rid); err != nil {
		return err
	}
	for _, idx := range t.indexes {
		idx.drop(row, rid)
	}
	return nil
}

// Update replaces the row at rid, maintaining indexes; it returns the
// row's (possibly relocated) RID.
func (t *Table) Update(rid storage.RID, row types.Row) (storage.RID, error) {
	if err := t.checkRow(row); err != nil {
		return storage.RID{}, err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	old, err := t.Heap.Get(rid)
	if err != nil {
		return storage.RID{}, err
	}
	if t.PKCol >= 0 && !types.Equal(old[t.PKCol], row[t.PKCol]) {
		pk := t.pkIndexLocked()
		if _, exists := pk.Tree.Get(types.Row{row[t.PKCol]}); exists {
			return storage.RID{}, fmt.Errorf("catalog: duplicate primary key %v in table %q", row[t.PKCol], t.Name)
		}
	}
	newRID, err := t.Heap.Update(rid, row)
	if err != nil {
		return storage.RID{}, err
	}
	for _, idx := range t.indexes {
		idx.drop(old, rid)
		idx.add(row, newRID)
	}
	return newRID, nil
}

func (t *Table) checkRow(row types.Row) error {
	if len(row) != t.Schema.Len() {
		return fmt.Errorf("catalog: row has %d values, table %q has %d columns", len(row), t.Name, t.Schema.Len())
	}
	for i, v := range row {
		if v.IsNull() {
			if i == t.PKCol {
				return fmt.Errorf("catalog: NULL primary key in table %q", t.Name)
			}
			continue
		}
		if v.Kind() != t.Schema.Columns[i].Kind {
			// Permit int literals in float columns (SQL numeric coercion).
			if v.Kind() == types.KindInt && t.Schema.Columns[i].Kind == types.KindFloat {
				row[i] = types.NewFloat(float64(v.Int()))
				continue
			}
			return fmt.Errorf("catalog: column %q of table %q expects %s, got %s",
				t.Schema.Columns[i].Name, t.Name, t.Schema.Columns[i].Kind, v.Kind())
		}
	}
	return nil
}

func (t *Table) pkIndexLocked() *Index {
	return t.indexes[strings.ToLower(t.Schema.Columns[t.PKCol].Name)]
}

// CreateIndex builds a secondary index on the named column from the rows
// already in the heap: one scan collects the column, then the index is
// built in bulk (indexRun).
func (t *Table) CreateIndex(name, column string) (*Index, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	idx, key, err := t.newIndexLocked(name, column)
	if err != nil {
		return nil, err
	}
	rows := int(t.Heap.NumRows())
	run := newIndexRun(idx, rows)
	rids := make([]storage.RID, 0, rows)
	it := t.Heap.Scan()
	defer it.Close()
	for {
		row, rid, ok, err := it.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		run.add(row[idx.Column])
		rids = append(rids, rid)
	}
	if err := run.finish(rids); err != nil {
		return nil, err
	}
	t.indexes[key] = idx
	return idx, nil
}

// newIndexLocked makes the empty index CreateIndex or a Loader is about to
// fill, and the key it will be registered under. Caller holds t.mu (or
// owns a table no one else can reach yet).
func (t *Table) newIndexLocked(name, column string) (*Index, string, error) {
	col, err := t.Schema.Resolve("", column)
	if err != nil {
		return nil, "", err
	}
	key := strings.ToLower(column)
	if _, exists := t.indexes[key]; exists {
		return nil, "", fmt.Errorf("catalog: index on %q.%q already exists", t.Name, column)
	}
	idx := &Index{Name: name, Column: col}
	if t.Schema.Columns[col].Kind == types.KindGeometry {
		idx.Spatial = geo.NewRTree(0)
	} else {
		idx.Tree = btree.New(0)
	}
	return idx, key, nil
}

// indexRun builds one index in bulk. The indexed column's values are added
// in heap order — ascending RID, which is how both a heap scan and a bulk
// append meet the rows — and go straight into the slab the tree's keys
// will be cut from; finish supplies the RIDs and builds the tree bottom-up
// (btree.Load). A column that arrived non-decreasing is already in key
// order (value, page, slot), which add notices as the values go by; only a
// column that did not is sorted by (value, input position), which keeps
// equal values in RID order.
type indexRun struct {
	idx    *Index
	keys   types.Row // the keys so far, back to back, RID fields still zero
	sorted bool      // the values so far are non-decreasing
}

// newIndexRun starts a run expected to take rows values.
func newIndexRun(idx *Index, rows int) *indexRun {
	return &indexRun{idx: idx, keys: make(types.Row, 0, rows*idx.keyWidth()), sorted: true}
}

// add takes the next row's value of the indexed column.
func (r *indexRun) add(val types.Value) {
	if n := len(r.keys); r.sorted && n > 0 && btree.CompareValues(r.keys[n-r.idx.keyWidth()], val) > 0 {
		r.sorted = false
	}
	r.keys = r.idx.appendKey(r.keys, val, storage.RID{})
}

// finish builds the index, replacing whatever it held: rids[i] is where
// the row of the i-th added value lives. A unique index refuses two equal
// values.
func (r *indexRun) finish(rids []storage.RID) error {
	idx, w, keys := r.idx, r.idx.keyWidth(), r.keys
	if idx.Spatial != nil {
		for i, rid := range rids {
			if g := keys[i]; g.Kind() == types.KindGeometry && g.Geometry() != nil {
				idx.Spatial.Insert(g.Geometry(), rid)
			}
		}
		return nil
	}
	switch {
	case !r.sorted:
		order := make([]int, len(rids))
		for i := range order {
			order[i] = i
		}
		slices.SortFunc(order, func(a, b int) int {
			return cmp.Or(btree.CompareValues(keys[a*w], keys[b*w]), cmp.Compare(a, b))
		})
		keys = make(types.Row, 0, len(r.keys))
		inOrder := make([]storage.RID, len(rids))
		for i, o := range order {
			keys = idx.appendKey(keys, r.keys[o*w], rids[o])
			inOrder[i] = rids[o]
		}
		rids = inOrder
	case w > 1:
		for i, rid := range rids {
			idx.appendKey(keys[:i*w], keys[i*w], rid) // in place: the RID is now known
		}
	}
	vals := make([]any, len(rids))
	for i, rid := range rids {
		if idx.Unique && i > 0 && btree.CompareValues(keys[i-1], keys[i]) == 0 {
			return fmt.Errorf("catalog: duplicate key %v in unique index %q", keys[i], idx.Name)
		}
		vals[i] = rid
	}
	tree, err := btree.Load(0, w, keys, vals)
	if err != nil {
		return err
	}
	idx.Tree = tree
	return nil
}

// add inserts one row's entry into the index.
func (idx *Index) add(row types.Row, rid storage.RID) {
	if idx.Spatial != nil {
		v := row[idx.Column]
		if v.Kind() == types.KindGeometry && v.Geometry() != nil {
			idx.Spatial.Insert(v.Geometry(), rid)
		}
		return
	}
	idx.Tree.Insert(idx.appendKey(nil, row[idx.Column], rid), rid)
}

// drop removes one row's entry from the index.
func (idx *Index) drop(row types.Row, rid storage.RID) {
	if idx.Spatial != nil {
		v := row[idx.Column]
		if v.Kind() == types.KindGeometry && v.Geometry() != nil {
			idx.Spatial.Delete(v.Geometry(), rid)
		}
		return
	}
	idx.Tree.Delete(idx.appendKey(nil, row[idx.Column], rid))
}

// SearchContaining visits RIDs of rows whose geometry bounding box
// intersects q's (candidates for ST_Contains/ST_Intersects checks).
func (idx *Index) SearchContaining(q geo.Geometry, fn func(rid storage.RID) bool) {
	if idx.Spatial == nil {
		return
	}
	idx.Spatial.SearchIntersecting(q, func(_ geo.Geometry, data any) bool {
		return fn(data.(storage.RID))
	})
}

// SearchWithin visits RIDs of rows whose geometry bounding box lies within
// dist of q's (candidates for ST_DWithin checks).
func (idx *Index) SearchWithin(q geo.Geometry, dist float64, fn func(rid storage.RID) bool) {
	if idx.Spatial == nil {
		return
	}
	idx.Spatial.SearchWithin(q, dist, func(_ geo.Geometry, data any) bool {
		return fn(data.(storage.RID))
	})
}

// Indexes returns all indexes of the table (including the implicit
// primary-key index), unordered.
func (t *Table) Indexes() []*Index {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make([]*Index, 0, len(t.indexes))
	for _, idx := range t.indexes {
		out = append(out, idx)
	}
	return out
}

// IndexOn returns the index whose key column has the given name, if any.
func (t *Table) IndexOn(column string) (*Index, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	idx, ok := t.indexes[strings.ToLower(column)]
	return idx, ok
}

// LookupPK fetches the row whose primary key equals v. The read lock is
// held across the heap fetch so a concurrent update cannot relocate the
// row between the tree probe and the read.
func (t *Table) LookupPK(v types.Value) (types.Row, storage.RID, bool, error) {
	if t.PKCol < 0 {
		return nil, storage.RID{}, false, fmt.Errorf("catalog: table %q has no primary key", t.Name)
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	idx := t.pkIndexLocked()
	got, ok := idx.Tree.Get(types.Row{v})
	if !ok {
		return nil, storage.RID{}, false, nil
	}
	rid := got.(storage.RID)
	row, err := t.Heap.Get(rid)
	if err != nil {
		return nil, storage.RID{}, false, err
	}
	return row, rid, true, nil
}

// IndexRIDs returns the RIDs of the rows whose indexed column value is in
// [lo, hi] (NULL bounds are open), in index order. The tree is read under
// the table's read lock, so concurrent writers cannot mutate it mid-walk;
// the entries are counted first, a leaf at a time, so the slice is made
// once at its length. Index scans read a B-tree only through here.
func (t *Table) IndexRIDs(idx *Index, lo, hi types.Value) []storage.RID {
	t.mu.RLock()
	defer t.mu.RUnlock()
	n := 0
	idx.scanRuns(lo, hi, func(keys []types.Row, _ []any) bool {
		n += len(keys)
		return true
	})
	rids := make([]storage.RID, 0, n)
	idx.scanRuns(lo, hi, func(keys []types.Row, vals []any) bool {
		for i, k := range keys {
			rids = append(rids, ridOf(k, vals[i]))
		}
		return true
	})
	return rids
}

// SearchIndexContaining is Index.SearchContaining under the table's read
// lock (see IndexRIDs).
func (t *Table) SearchIndexContaining(idx *Index, q geo.Geometry, fn func(rid storage.RID) bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	idx.SearchContaining(q, fn)
}

// SearchIndexWithin is Index.SearchWithin under the table's read lock
// (see IndexRIDs).
func (t *Table) SearchIndexWithin(idx *Index, q geo.Geometry, dist float64, fn func(rid storage.RID) bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	idx.SearchWithin(q, dist, fn)
}

// scanRuns hands fn the entries whose column value is in [lo, hi] (nil
// bounds are open) a leaf's run at a time (btree.AscendRuns). The upper
// bound is checked on the column alone, which every key of a non-unique
// index — (value, page, slot) — starts with: on a run's last key, and
// only in the run where the range ends, by binary search.
func (idx *Index) scanRuns(lo, hi types.Value, fn func(keys []types.Row, vals []any) bool) {
	var from types.Row
	if !lo.IsNull() {
		from = types.Row{lo}
	}
	idx.Tree.AscendRuns(from, func(keys []types.Row, vals []any) bool {
		if hi.IsNull() || btree.CompareValues(keys[len(keys)-1][0], hi) <= 0 {
			return fn(keys, vals)
		}
		end := sort.Search(len(keys), func(i int) bool { return btree.CompareValues(keys[i][0], hi) > 0 })
		if end > 0 {
			fn(keys[:end], vals[:end])
		}
		return false
	})
}

// ridOf returns the RID of one index entry: read from the key itself for
// a non-unique index's (value, page, slot), rather than from the value
// the tree boxes it in.
func ridOf(key types.Row, val any) storage.RID {
	if len(key) == 3 {
		return storage.RID{Page: storage.PageID(key[1].Int()), Slot: storage.SlotID(key[2].Int())}
	}
	return val.(storage.RID)
}
