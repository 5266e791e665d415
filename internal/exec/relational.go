package exec

import (
	"fmt"
	"sort"

	"recdb/internal/catalog"
	"recdb/internal/expr"
	"recdb/internal/rec"
	"recdb/internal/storage"
	"recdb/internal/types"
)

// ---- SeqScan ----

// SeqScan reads a heap table block by block under a visible qualifier
// (the table's alias in FROM).
type SeqScan struct {
	Table     *catalog.Table
	Qualifier string

	schema *types.Schema
	it     *storage.Iterator
}

// NewSeqScan creates a scan of table visible under qualifier.
func NewSeqScan(table *catalog.Table, qualifier string) *SeqScan {
	return &SeqScan{
		Table:     table,
		Qualifier: qualifier,
		schema:    table.Schema.WithQualifier(qualifier),
	}
}

// Schema implements Operator.
func (s *SeqScan) Schema() *types.Schema { return s.schema }

// Open implements Operator.
func (s *SeqScan) Open() error {
	s.it = s.Table.Heap.Scan()
	return nil
}

// Next implements Operator.
func (s *SeqScan) Next() (types.Row, bool, error) {
	row, _, ok, err := s.it.Next()
	return row, ok, err
}

// Close implements Operator.
func (s *SeqScan) Close() error {
	if s.it != nil {
		s.it.Close()
		s.it = nil
	}
	return nil
}

// ---- ModelScan ----

// ModelScan reads one of a recommender's model relations (rec.Relation)
// under a visible qualifier: its rows in key order, produced from the
// model a key at a time.
type ModelScan struct {
	Relation  *rec.Relation
	Qualifier string

	schema *types.Schema
	key    int         // the next key to produce rows for
	rows   []types.Row // the current key's rows not yet returned
}

// NewModelScan creates a scan of rel visible under qualifier.
func NewModelScan(rel *rec.Relation, qualifier string) *ModelScan {
	return &ModelScan{Relation: rel, Qualifier: qualifier, schema: rel.Schema.WithQualifier(qualifier)}
}

// Schema implements Operator.
func (s *ModelScan) Schema() *types.Schema { return s.schema }

// Open implements Operator.
func (s *ModelScan) Open() error {
	s.key, s.rows = 0, nil
	return nil
}

// Next implements Operator.
func (s *ModelScan) Next() (types.Row, bool, error) {
	for len(s.rows) == 0 {
		if s.key == s.Relation.Keys() {
			return nil, false, nil
		}
		s.rows = s.Relation.Rows(s.key)
		s.key++
	}
	row := s.rows[0]
	s.rows = s.rows[1:]
	return row, true, nil
}

// Close implements Operator.
func (s *ModelScan) Close() error {
	s.rows = nil
	return nil
}

// ---- IndexScan ----

// IndexScan reads rows whose indexed column lies in [Lo, Hi] (NULL bounds
// are open), in ascending column order.
type IndexScan struct {
	Table     *catalog.Table
	Index     *catalog.Index
	Qualifier string
	Lo, Hi    types.Value

	schema *types.Schema
	rids   []storage.RID
	pos    int
}

// NewIndexScan creates an index range scan.
func NewIndexScan(table *catalog.Table, index *catalog.Index, qualifier string, lo, hi types.Value) *IndexScan {
	return &IndexScan{
		Table: table, Index: index, Qualifier: qualifier, Lo: lo, Hi: hi,
		schema: table.Schema.WithQualifier(qualifier),
	}
}

// Schema implements Operator.
func (s *IndexScan) Schema() *types.Schema { return s.schema }

// Open implements Operator. The candidate RIDs are collected under the
// table's read lock so concurrent writers cannot mutate the tree
// mid-walk.
func (s *IndexScan) Open() error {
	s.rids = s.rids[:0]
	s.pos = 0
	s.Table.ScanIndexRange(s.Index, s.Lo, s.Hi, func(rid storage.RID) bool {
		s.rids = append(s.rids, rid)
		return true
	})
	return nil
}

// Next implements Operator. A candidate whose tuple vanished between
// Open and here (deleted or relocated by a concurrent writer) is
// skipped, not an error.
func (s *IndexScan) Next() (types.Row, bool, error) {
	for s.pos < len(s.rids) {
		rid := s.rids[s.pos]
		s.pos++
		row, ok, err := s.Table.Heap.Lookup(rid)
		if err != nil {
			return nil, false, err
		}
		if ok {
			return row, true, nil
		}
	}
	return nil, false, nil
}

// Close implements Operator.
func (s *IndexScan) Close() error { return nil }

// ---- Filter ----

// Filter passes rows whose predicate evaluates to TRUE.
type Filter struct {
	Child Operator
	Pred  expr.Compiled
}

// NewFilter wraps child with a predicate.
func NewFilter(child Operator, pred expr.Compiled) *Filter {
	return &Filter{Child: child, Pred: pred}
}

// Schema implements Operator.
func (f *Filter) Schema() *types.Schema { return f.Child.Schema() }

// Open implements Operator.
func (f *Filter) Open() error { return f.Child.Open() }

// Next implements Operator.
func (f *Filter) Next() (types.Row, bool, error) {
	for {
		row, ok, err := f.Child.Next()
		if err != nil || !ok {
			return nil, false, err
		}
		v, err := f.Pred(row)
		if err != nil {
			return nil, false, err
		}
		if expr.Truthy(v) {
			return row, true, nil
		}
	}
}

// Close implements Operator.
func (f *Filter) Close() error { return f.Child.Close() }

// ---- Project ----

// Project evaluates a list of expressions per input row.
type Project struct {
	Child  Operator
	Exprs  []expr.Compiled
	schema *types.Schema
}

// NewProject creates a projection with the given output schema.
func NewProject(child Operator, exprs []expr.Compiled, schema *types.Schema) *Project {
	return &Project{Child: child, Exprs: exprs, schema: schema}
}

// Schema implements Operator.
func (p *Project) Schema() *types.Schema { return p.schema }

// Open implements Operator.
func (p *Project) Open() error { return p.Child.Open() }

// Next implements Operator.
func (p *Project) Next() (types.Row, bool, error) {
	row, ok, err := p.Child.Next()
	if err != nil || !ok {
		return nil, false, err
	}
	out := make(types.Row, len(p.Exprs))
	for i, e := range p.Exprs {
		if out[i], err = e(row); err != nil {
			return nil, false, err
		}
	}
	return out, true, nil
}

// Close implements Operator.
func (p *Project) Close() error { return p.Child.Close() }

// ---- Joins ----

// NestedLoopJoin joins left and right on an arbitrary predicate (nil means
// cross join). The right input is materialized at Open.
type NestedLoopJoin struct {
	Left, Right Operator
	Pred        expr.Compiled

	schema   *types.Schema
	rightBuf []types.Row
	curLeft  types.Row
	haveLeft bool
	rightPos int
}

// NewNestedLoopJoin creates a nested-loop join.
func NewNestedLoopJoin(left, right Operator, pred expr.Compiled) *NestedLoopJoin {
	return &NestedLoopJoin{
		Left: left, Right: right, Pred: pred,
		schema: left.Schema().Concat(right.Schema()),
	}
}

// Schema implements Operator.
func (j *NestedLoopJoin) Schema() *types.Schema { return j.schema }

// Open implements Operator.
func (j *NestedLoopJoin) Open() error {
	if err := j.Left.Open(); err != nil {
		return err
	}
	rows, err := Collect(j.Right)
	if err != nil {
		return err
	}
	j.rightBuf = rows
	j.haveLeft = false
	j.rightPos = 0
	return nil
}

// Next implements Operator.
func (j *NestedLoopJoin) Next() (types.Row, bool, error) {
	for {
		if !j.haveLeft {
			row, ok, err := j.Left.Next()
			if err != nil || !ok {
				return nil, false, err
			}
			j.curLeft = row
			j.haveLeft = true
			j.rightPos = 0
		}
		for j.rightPos < len(j.rightBuf) {
			joined := j.curLeft.Concat(j.rightBuf[j.rightPos])
			j.rightPos++
			if j.Pred == nil {
				return joined, true, nil
			}
			v, err := j.Pred(joined)
			if err != nil {
				return nil, false, err
			}
			if expr.Truthy(v) {
				return joined, true, nil
			}
		}
		j.haveLeft = false
	}
}

// Close implements Operator.
func (j *NestedLoopJoin) Close() error {
	errL := j.Left.Close()
	// Right was closed by Collect in Open; Close is idempotent for our
	// operators, but guard anyway.
	if errR := j.Right.Close(); errL == nil {
		errL = errR
	}
	return errL
}

// HashJoin is an equi-join: build a hash table on the right input's key,
// probe with the left. An optional residual predicate filters joined rows.
type HashJoin struct {
	Left, Right       Operator
	LeftKey, RightKey expr.Compiled
	Residual          expr.Compiled

	schema  *types.Schema
	table   map[uint64][]types.Row
	pending []types.Row
	curLeft types.Row
}

// NewHashJoin creates a hash equi-join on leftKey = rightKey.
func NewHashJoin(left, right Operator, leftKey, rightKey expr.Compiled, residual expr.Compiled) *HashJoin {
	return &HashJoin{
		Left: left, Right: right,
		LeftKey: leftKey, RightKey: rightKey, Residual: residual,
		schema: left.Schema().Concat(right.Schema()),
	}
}

// Schema implements Operator.
func (j *HashJoin) Schema() *types.Schema { return j.schema }

// Open implements Operator.
func (j *HashJoin) Open() error {
	if err := j.Left.Open(); err != nil {
		return err
	}
	rows, err := Collect(j.Right)
	if err != nil {
		return err
	}
	j.table = make(map[uint64][]types.Row)
	for _, r := range rows {
		k, err := j.RightKey(r)
		if err != nil {
			return err
		}
		if k.IsNull() {
			continue // NULL keys never join
		}
		h := k.Hash()
		j.table[h] = append(j.table[h], r)
	}
	j.pending = nil
	return nil
}

// Next implements Operator.
func (j *HashJoin) Next() (types.Row, bool, error) {
	for {
		for len(j.pending) > 0 {
			right := j.pending[0]
			j.pending = j.pending[1:]
			joined := j.curLeft.Concat(right)
			if j.Residual != nil {
				v, err := j.Residual(joined)
				if err != nil {
					return nil, false, err
				}
				if !expr.Truthy(v) {
					continue
				}
			}
			return joined, true, nil
		}
		row, ok, err := j.Left.Next()
		if err != nil || !ok {
			return nil, false, err
		}
		k, err := j.LeftKey(row)
		if err != nil {
			return nil, false, err
		}
		if k.IsNull() {
			continue
		}
		matches := j.table[k.Hash()]
		if len(matches) == 0 {
			continue
		}
		// Verify equality (hash collisions) and stage matches.
		j.curLeft = row
		j.pending = j.pending[:0]
		for _, m := range matches {
			rk, err := j.RightKey(m)
			if err != nil {
				return nil, false, err
			}
			if types.Equal(k, rk) {
				j.pending = append(j.pending, m)
			}
		}
	}
}

// Close implements Operator.
func (j *HashJoin) Close() error {
	errL := j.Left.Close()
	if errR := j.Right.Close(); errL == nil {
		errL = errR
	}
	return errL
}

// ---- Sort ----

// SortKey is one ORDER BY key.
type SortKey struct {
	Expr expr.Compiled
	Desc bool
}

// Sort materializes its input and emits it ordered by Keys.
type Sort struct {
	Child Operator
	Keys  []SortKey

	rows []types.Row
	pos  int
}

// NewSort creates a sort operator.
func NewSort(child Operator, keys []SortKey) *Sort {
	return &Sort{Child: child, Keys: keys}
}

// Schema implements Operator.
func (s *Sort) Schema() *types.Schema { return s.Child.Schema() }

// Open implements Operator.
func (s *Sort) Open() error {
	rows, err := Collect(s.Child)
	if err != nil {
		return err
	}
	type keyed struct {
		row  types.Row
		keys types.Row
	}
	ks := make([]keyed, len(rows))
	for i, r := range rows {
		kv := make(types.Row, len(s.Keys))
		for ki, k := range s.Keys {
			v, err := k.Expr(r)
			if err != nil {
				return err
			}
			kv[ki] = v
		}
		ks[i] = keyed{row: r, keys: kv}
	}
	var sortErr error
	sort.SliceStable(ks, func(a, b int) bool {
		for ki := range s.Keys {
			c, err := types.Compare(ks[a].keys[ki], ks[b].keys[ki])
			if err != nil && sortErr == nil {
				sortErr = fmt.Errorf("exec: ORDER BY: %w", err)
			}
			if c == 0 {
				continue
			}
			if s.Keys[ki].Desc {
				return c > 0
			}
			return c < 0
		}
		return false
	})
	if sortErr != nil {
		return sortErr
	}
	s.rows = s.rows[:0]
	for _, k := range ks {
		s.rows = append(s.rows, k.row)
	}
	s.pos = 0
	return nil
}

// Next implements Operator.
func (s *Sort) Next() (types.Row, bool, error) {
	if s.pos >= len(s.rows) {
		return nil, false, nil
	}
	row := s.rows[s.pos]
	s.pos++
	return row, true, nil
}

// Close implements Operator.
func (s *Sort) Close() error {
	s.rows = nil
	// Collect in Open closes the child on the happy path, but Close is
	// idempotent and an Open that failed early leaves the child open.
	return s.Child.Close()
}

// ---- Limit ----

// Limit passes at most N rows, after skipping the first Skip rows
// (LIMIT n OFFSET m). A negative N means "no limit, offset only".
type Limit struct {
	Child   Operator
	N       int64
	Skip    int64
	seen    int64
	skipped int64
}

// NewLimit creates a limit operator with no offset.
func NewLimit(child Operator, n int64) *Limit {
	return &Limit{Child: child, N: n}
}

// NewLimitOffset creates a LIMIT n OFFSET skip operator; n < 0 disables
// the limit.
func NewLimitOffset(child Operator, n, skip int64) *Limit {
	return &Limit{Child: child, N: n, Skip: skip}
}

// Schema implements Operator.
func (l *Limit) Schema() *types.Schema { return l.Child.Schema() }

// Open implements Operator.
func (l *Limit) Open() error {
	l.seen = 0
	l.skipped = 0
	return l.Child.Open()
}

// Next implements Operator.
func (l *Limit) Next() (types.Row, bool, error) {
	for l.skipped < l.Skip {
		_, ok, err := l.Child.Next()
		if err != nil || !ok {
			return nil, false, err
		}
		l.skipped++
	}
	if l.N >= 0 && l.seen >= l.N {
		return nil, false, nil
	}
	row, ok, err := l.Child.Next()
	if err != nil || !ok {
		return nil, false, err
	}
	l.seen++
	return row, true, nil
}

// Close implements Operator.
func (l *Limit) Close() error { return l.Child.Close() }
