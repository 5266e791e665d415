package exec

import (
	"runtime"
	"testing"

	"recdb/internal/catalog"
	"recdb/internal/expr"
	"recdb/internal/sql"
	"recdb/internal/types"
)

func compilePred(t *testing.T, cond string, schema *types.Schema) expr.Compiled {
	t.Helper()
	stmt, err := sql.Parse("SELECT x FROM t WHERE " + cond)
	if err != nil {
		t.Fatalf("parse %q: %v", cond, err)
	}
	c, err := expr.Compile(stmt.(*sql.Select).Where, schema)
	if err != nil {
		t.Fatalf("compile %q: %v", cond, err)
	}
	return c
}

func newTable(t *testing.T, cat *catalog.Catalog, name string, schema *types.Schema, pk int, rows []types.Row) *catalog.Table {
	t.Helper()
	tab, err := cat.CreateTable(name, schema, pk)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if _, err := tab.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	return tab
}

func moviesFixture(t *testing.T, cat *catalog.Catalog) *catalog.Table {
	schema := types.NewSchema(
		types.Column{Name: "mid", Kind: types.KindInt},
		types.Column{Name: "name", Kind: types.KindText},
		types.Column{Name: "genre", Kind: types.KindText},
	)
	rows := []types.Row{
		{types.NewInt(1), types.NewText("Spartacus"), types.NewText("Action")},
		{types.NewInt(2), types.NewText("Inception"), types.NewText("Suspense")},
		{types.NewInt(3), types.NewText("The Matrix"), types.NewText("Sci-Fi")},
		{types.NewInt(4), types.NewText("Heat"), types.NewText("Action")},
	}
	return newTable(t, cat, "movies", schema, 0, rows)
}

func TestSeqScan(t *testing.T) {
	cat := catalog.New(nil, 0)
	tab := moviesFixture(t, cat)
	scan := NewSeqScan(tab, "m")
	rows, err := Collect(scan)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("got %d rows", len(rows))
	}
	if scan.Schema().Columns[0].QualifiedName() != "m.mid" {
		t.Fatalf("schema: %v", scan.Schema().Columns)
	}
	// Reopenable.
	rows2, err := Collect(scan)
	if err != nil || len(rows2) != 4 {
		t.Fatalf("reopen: %d rows, %v", len(rows2), err)
	}
}

func TestIndexScan(t *testing.T) {
	cat := catalog.New(nil, 0)
	tab := moviesFixture(t, cat)
	idx, ok := tab.IndexOn("mid")
	if !ok {
		t.Fatal("pk index missing")
	}
	scan := NewIndexScan(tab, idx, "m", types.NewInt(2), types.NewInt(3))
	rows, err := Collect(scan)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0][0].Int() != 2 || rows[1][0].Int() != 3 {
		t.Fatalf("index scan: %v", rows)
	}
}

func TestFilter(t *testing.T) {
	cat := catalog.New(nil, 0)
	tab := moviesFixture(t, cat)
	scan := NewSeqScan(tab, "m")
	pred := compilePred(t, "m.genre = 'Action'", scan.Schema())
	rows, err := Collect(NewFilter(scan, pred))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("filter: %v", rows)
	}
}

func TestProject(t *testing.T) {
	cat := catalog.New(nil, 0)
	tab := moviesFixture(t, cat)
	scan := NewSeqScan(tab, "m")
	nameExpr, err := expr.Compile(&sql.ColumnRef{Qualifier: "m", Name: "name"}, scan.Schema())
	if err != nil {
		t.Fatal(err)
	}
	outSchema := types.NewSchema(types.Column{Name: "name", Kind: types.KindText})
	rows, err := Collect(NewProject(scan, []expr.Compiled{nameExpr}, outSchema))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 || len(rows[0]) != 1 || rows[0][0].Text() != "Spartacus" {
		t.Fatalf("project: %v", rows)
	}
}

// boundedRows returns rows in order and bounds the rows it has left, as
// an index scan bounds its candidates.
type boundedRows struct {
	schema *types.Schema
	rows   []types.Row
	pos    int
}

func (b *boundedRows) Schema() *types.Schema { return b.schema }
func (b *boundedRows) Open() error           { b.pos = 0; return nil }
func (b *boundedRows) Close() error          { return nil }
func (b *boundedRows) rowsLeft() int         { return len(b.rows) - b.pos }

func (b *boundedRows) Next() (types.Row, bool, error) {
	if b.pos == len(b.rows) {
		return nil, false, nil
	}
	b.pos++
	return b.rows[b.pos-1], true, nil
}

// TestRowBoundIsAHint: Collect and Project size their arrays by a child's
// bound on the rows left, but a statement that returns one row of a wide
// range allocates for the row, not for the range: a selective Filter
// passes no bound on, and Project's first slab is small for a LIMIT that
// stops after one row. Over a bound of 10 000 rows, each plan here
// allocates under 2 KiB per run; taking the bound as a size would make
// ~240 KB (Collect's array) and ~28 KB (a 256-row slab).
func TestRowBoundIsAHint(t *testing.T) {
	src := &boundedRows{schema: types.NewSchema(
		types.Column{Qualifier: "m", Name: "uid", Kind: types.KindInt},
		types.Column{Qualifier: "m", Name: "iid", Kind: types.KindInt},
		types.Column{Qualifier: "m", Name: "ratingval", Kind: types.KindFloat},
	)}
	for i := range 10000 {
		src.rows = append(src.rows, types.Row{types.NewInt(7), types.NewInt(int64(i)), types.NewFloat(3)})
	}
	var cols []expr.Compiled
	for _, name := range []string{"iid", "ratingval"} {
		c, err := expr.Compile(&sql.ColumnRef{Qualifier: "m", Name: name}, src.Schema())
		if err != nil {
			t.Fatal(err)
		}
		cols = append(cols, c)
	}
	out := types.NewSchema(types.Column{Name: "iid", Kind: types.KindInt}, types.Column{Name: "ratingval", Kind: types.KindFloat})
	for name, plan := range map[string]Operator{
		"selective filter": NewProject(NewFilter(src, compilePred(t, "m.iid = 42", src.Schema())), cols, out),
		"limit 1":          NewLimit(NewProject(src, cols, out), 1),
	} {
		run := func() {
			if rows, err := Collect(plan); err != nil || len(rows) != 1 {
				t.Fatalf("%s: %v, %v", name, rows, err)
			}
		}
		run()
		const runs = 20
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			run()
		}
		runtime.ReadMemStats(&after)
		if bytes := (after.TotalAlloc - before.TotalAlloc) / runs; bytes > 2048 {
			t.Errorf("%s: %d bytes per run for one row; budget 2048", name, bytes)
		}
	}
}

func ratingsFixture(t *testing.T, cat *catalog.Catalog) *catalog.Table {
	schema := types.NewSchema(
		types.Column{Name: "uid", Kind: types.KindInt},
		types.Column{Name: "iid", Kind: types.KindInt},
		types.Column{Name: "ratingval", Kind: types.KindFloat},
	)
	rows := []types.Row{
		{types.NewInt(1), types.NewInt(1), types.NewFloat(1.5)},
		{types.NewInt(2), types.NewInt(2), types.NewFloat(3.5)},
		{types.NewInt(2), types.NewInt(1), types.NewFloat(4.5)},
		{types.NewInt(2), types.NewInt(3), types.NewFloat(2)},
		{types.NewInt(3), types.NewInt(2), types.NewFloat(1)},
		{types.NewInt(3), types.NewInt(1), types.NewFloat(2)},
		{types.NewInt(4), types.NewInt(2), types.NewFloat(1)},
	}
	return newTable(t, cat, "ratings", schema, -1, rows)
}

func TestNestedLoopJoin(t *testing.T) {
	cat := catalog.New(nil, 0)
	movies := moviesFixture(t, cat)
	ratings := ratingsFixture(t, cat)
	left := NewSeqScan(ratings, "r")
	right := NewSeqScan(movies, "m")
	joined := NewNestedLoopJoin(left, right, nil)
	pred := compilePred(t, "r.iid = m.mid", joined.Schema())
	joined.Pred = pred
	rows, err := Collect(joined)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 7 { // every rating matches exactly one movie
		t.Fatalf("join produced %d rows", len(rows))
	}
	if len(rows[0]) != 6 {
		t.Fatalf("joined row width %d", len(rows[0]))
	}
}

func TestHashJoin(t *testing.T) {
	cat := catalog.New(nil, 0)
	movies := moviesFixture(t, cat)
	ratings := ratingsFixture(t, cat)
	left := NewSeqScan(ratings, "r")
	right := NewSeqScan(movies, "m")
	outSchema := left.Schema().Concat(right.Schema())
	lk, _ := expr.Compile(&sql.ColumnRef{Qualifier: "r", Name: "iid"}, left.Schema())
	rk, _ := expr.Compile(&sql.ColumnRef{Qualifier: "m", Name: "mid"}, right.Schema())
	j := NewHashJoin(left, right, lk, rk, nil)
	rows, err := Collect(j)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 7 {
		t.Fatalf("hash join produced %d rows", len(rows))
	}
	// Verify the join key actually matches.
	for _, r := range rows {
		if r[1].Int() != r[3].Int() {
			t.Fatalf("mismatched join row: %v", r)
		}
	}
	_ = outSchema
}

func TestHashJoinWithResidual(t *testing.T) {
	cat := catalog.New(nil, 0)
	movies := moviesFixture(t, cat)
	ratings := ratingsFixture(t, cat)
	left := NewSeqScan(ratings, "r")
	right := NewSeqScan(movies, "m")
	lk, _ := expr.Compile(&sql.ColumnRef{Qualifier: "r", Name: "iid"}, left.Schema())
	rk, _ := expr.Compile(&sql.ColumnRef{Qualifier: "m", Name: "mid"}, right.Schema())
	j := NewHashJoin(left, right, lk, rk, nil)
	j.Residual = compilePred(t, "m.genre = 'Action'", j.Schema())
	rows, err := Collect(j)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 { // item 1 (Action) rated 3 times
		t.Fatalf("residual join produced %d rows", len(rows))
	}
}

func TestHashJoinNullKeysNeverMatch(t *testing.T) {
	cat := catalog.New(nil, 0)
	schema := types.NewSchema(types.Column{Name: "k", Kind: types.KindInt})
	a := newTable(t, cat, "a", schema, -1, []types.Row{{types.Null()}, {types.NewInt(1)}})
	b := newTable(t, cat, "b", schema, -1, []types.Row{{types.Null()}, {types.NewInt(1)}})
	ls, rs := NewSeqScan(a, "a"), NewSeqScan(b, "b")
	lk, _ := expr.Compile(&sql.ColumnRef{Qualifier: "a", Name: "k"}, ls.Schema())
	rk, _ := expr.Compile(&sql.ColumnRef{Qualifier: "b", Name: "k"}, rs.Schema())
	rows, err := Collect(NewHashJoin(ls, rs, lk, rk, nil))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("null keys joined: %v", rows)
	}
}

func TestSortAndLimit(t *testing.T) {
	cat := catalog.New(nil, 0)
	ratings := ratingsFixture(t, cat)
	scan := NewSeqScan(ratings, "r")
	key, _ := expr.Compile(&sql.ColumnRef{Qualifier: "r", Name: "ratingval"}, scan.Schema())
	s := NewSort(scan, []SortKey{{Expr: key, Desc: true}})
	rows, err := Collect(s)
	if err != nil {
		t.Fatal(err)
	}
	if rows[0][2].Float() != 4.5 || rows[len(rows)-1][2].Float() != 1 {
		t.Fatalf("sort desc: %v", rows)
	}
	// Stable: equal keys preserve input order.
	scan2 := NewSeqScan(ratings, "r")
	key2, _ := expr.Compile(&sql.ColumnRef{Qualifier: "r", Name: "ratingval"}, scan2.Schema())
	limited := NewLimit(NewSort(scan2, []SortKey{{Expr: key2, Desc: true}}), 3)
	rows, err = Collect(limited)
	if err != nil || len(rows) != 3 {
		t.Fatalf("limit: %d rows, %v", len(rows), err)
	}
}

func TestSortAscendingMultiKey(t *testing.T) {
	cat := catalog.New(nil, 0)
	ratings := ratingsFixture(t, cat)
	scan := NewSeqScan(ratings, "r")
	k1, _ := expr.Compile(&sql.ColumnRef{Qualifier: "r", Name: "uid"}, scan.Schema())
	k2, _ := expr.Compile(&sql.ColumnRef{Qualifier: "r", Name: "iid"}, scan.Schema())
	rows, err := Collect(NewSort(scan, []SortKey{{Expr: k1}, {Expr: k2}}))
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(rows); i++ {
		a, b := rows[i-1], rows[i]
		if a[0].Int() > b[0].Int() || (a[0].Int() == b[0].Int() && a[1].Int() > b[1].Int()) {
			t.Fatalf("multi-key sort order broken at %d: %v %v", i, a, b)
		}
	}
}

func TestLimitZero(t *testing.T) {
	cat := catalog.New(nil, 0)
	ratings := ratingsFixture(t, cat)
	rows, err := Collect(NewLimit(NewSeqScan(ratings, "r"), 0))
	if err != nil || len(rows) != 0 {
		t.Fatalf("limit 0: %v %v", rows, err)
	}
}

func TestSortIncomparableKeysError(t *testing.T) {
	cat := catalog.New(nil, 0)
	schema := types.NewSchema(types.Column{Name: "v", Kind: types.KindText})
	// Mixed types in one column via NULL-typed inserts is not possible
	// through the catalog, so build a sort over an expression that yields
	// mixed kinds: CASE-less hack using the raw operator with rows fed
	// from two projections is overkill — instead sort a text column against
	// an int key by comparing v to itself concatenated (text) vs literal
	// (int) is also blocked at compile time. Simplest: feed the Sort a key
	// function that returns mixed kinds.
	tab := newTable(t, cat, "t", schema, -1, []types.Row{
		{types.NewText("a")}, {types.NewText("b")},
	})
	scan := NewSeqScan(tab, "t")
	i := 0
	key := func(row types.Row) (types.Value, error) {
		i++
		if i%2 == 0 {
			return types.NewInt(1), nil
		}
		return types.NewText("x"), nil
	}
	s := NewSort(scan, []SortKey{{Expr: key}})
	if err := s.Open(); err == nil {
		t.Fatal("sorting incomparable keys should error")
	}
}

func TestHashJoinCollisionVerification(t *testing.T) {
	// Force many rows through a join where the key space is small enough
	// that rows with equal hashes but unequal keys would surface as wrong
	// matches if equality were not re-verified.
	cat := catalog.New(nil, 0)
	schema := types.NewSchema(types.Column{Name: "k", Kind: types.KindInt})
	var rowsA, rowsB []types.Row
	for i := int64(0); i < 500; i++ {
		rowsA = append(rowsA, types.Row{types.NewInt(i)})
		rowsB = append(rowsB, types.Row{types.NewInt(i * 2)})
	}
	a := newTable(t, cat, "a", schema, -1, rowsA)
	b := newTable(t, cat, "b", schema, -1, rowsB)
	ls, rs := NewSeqScan(a, "a"), NewSeqScan(b, "b")
	lk, _ := expr.Compile(&sql.ColumnRef{Qualifier: "a", Name: "k"}, ls.Schema())
	rk, _ := expr.Compile(&sql.ColumnRef{Qualifier: "b", Name: "k"}, rs.Schema())
	joined, err := Collect(NewHashJoin(ls, rs, lk, rk, nil))
	if err != nil {
		t.Fatal(err)
	}
	// Matches: even k in [0, 500) → 250 rows.
	if len(joined) != 250 {
		t.Fatalf("join rows: %d", len(joined))
	}
	for _, r := range joined {
		if r[0].Int() != r[1].Int() {
			t.Fatalf("false match: %v", r)
		}
	}
}

func TestOperatorDoubleClose(t *testing.T) {
	cat := catalog.New(nil, 0)
	tab := moviesFixture(t, cat)
	scan := NewSeqScan(tab, "m")
	if err := scan.Open(); err != nil {
		t.Fatal(err)
	}
	if err := scan.Close(); err != nil {
		t.Fatal(err)
	}
	if err := scan.Close(); err != nil {
		t.Fatal("double close should be safe")
	}
	// Filter/Limit wrap and propagate.
	pred := compilePred(t, "m.genre = 'Action'", tab.Schema.WithQualifier("m"))
	f := NewFilter(NewSeqScan(tab, "m"), pred)
	if _, err := Collect(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal("close after Collect should be safe")
	}
}

func TestLimitExactBoundary(t *testing.T) {
	cat := catalog.New(nil, 0)
	tab := moviesFixture(t, cat) // 4 rows
	rows, err := Collect(NewLimit(NewSeqScan(tab, "m"), 4))
	if err != nil || len(rows) != 4 {
		t.Fatalf("limit == size: %d %v", len(rows), err)
	}
	rows, err = Collect(NewLimit(NewSeqScan(tab, "m"), 100))
	if err != nil || len(rows) != 4 {
		t.Fatalf("limit > size: %d %v", len(rows), err)
	}
}
