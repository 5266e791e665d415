package plan

import (
	"strings"

	"recdb/internal/catalog"
	"recdb/internal/exec"
	"recdb/internal/expr"
	"recdb/internal/sql"
	"recdb/internal/types"
)

// tryIndexScan inspects one WHERE conjunct and, when it is an equality
// between a B-tree-indexed column of this table and a constant
// (<col> = <const> or <const> = <col>), returns an IndexScan probing
// exactly that key. The scan checks every row it returns against its key
// (a candidate may be stale by the time its tuple is read — deleted and
// the slot reused by a concurrent writer), so it applies the conjunct.
func tryIndexScan(tab *catalog.Table, qualifier string, c sql.Expr) *exec.IndexScan {
	b, ok := c.(*sql.Binary)
	if !ok || b.Op != sql.OpEq {
		return nil
	}
	if v, idx := constValue(b.R), treeIndex(tab, qualifier, b.L); idx != nil && indexKey(tab, idx, v) {
		return exec.NewIndexScan(tab, idx, qualifier, v, v)
	}
	if v, idx := constValue(b.L), treeIndex(tab, qualifier, b.R); idx != nil && indexKey(tab, idx, v) {
		return exec.NewIndexScan(tab, idx, qualifier, v, v)
	}
	return nil
}

// readColumns marks the columns of schema a statement may read: every
// column named anywhere in it, under any qualifier, which over-counts
// only when two FROM tables share a column name. nil (every column) when
// it selects * or recommends, for the RECOMMEND operator reads its outer
// rows whole.
func readColumns(stmt *sql.Select, schema *types.Schema) []bool {
	if stmt.Recommend != nil {
		return nil
	}
	need := make([]bool, schema.Len())
	mark := func(e sql.Expr) {
		sql.Walk(e, func(n sql.Expr) {
			if ref, ok := n.(*sql.ColumnRef); ok {
				for i, c := range schema.Columns {
					need[i] = need[i] || strings.EqualFold(c.Name, ref.Name)
				}
			}
		})
	}
	for _, item := range stmt.Items {
		if item.Star {
			return nil
		}
		mark(item.Expr)
	}
	mark(stmt.Where)
	for _, e := range stmt.GroupBy {
		mark(e)
	}
	mark(stmt.Having)
	for _, o := range stmt.OrderBy {
		mark(o.Expr)
	}
	return need
}

// constValue evaluates e as a constant (a literal or arithmetic over
// literals), returning the null Value when it is not one.
func constValue(e sql.Expr) types.Value {
	compiled, err := expr.Compile(e, emptySchema)
	if err != nil {
		return types.Null()
	}
	v, err := compiled(nil)
	if err != nil {
		return types.Null()
	}
	return v
}

// treeIndex resolves e as a reference to one of tab's columns (visible
// under qualifier) that has a B-tree index.
func treeIndex(tab *catalog.Table, qualifier string, e sql.Expr) *catalog.Index {
	ref, ok := e.(*sql.ColumnRef)
	if !ok {
		return nil
	}
	if ref.Qualifier != "" && !strings.EqualFold(ref.Qualifier, qualifier) {
		return nil
	}
	if _, err := tab.Schema.Resolve("", ref.Name); err != nil {
		return nil
	}
	idx, ok := tab.IndexOn(ref.Name)
	if !ok || idx.Tree == nil {
		return nil
	}
	return idx
}

// indexKey reports whether constant v can probe idx as it is: it has the
// column's kind, or both are numbers, which compare exactly across BIGINT
// and DOUBLE (types.Compare). NULL never matches an equality.
func indexKey(tab *catalog.Table, idx *catalog.Index, v types.Value) bool {
	have, want := v.Kind(), tab.Schema.Columns[idx.Column].Kind
	numeric := func(k types.Kind) bool { return k == types.KindInt || k == types.KindFloat }
	return have != types.KindNull && (have == want || numeric(have) && numeric(want))
}
