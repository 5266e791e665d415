package exec

import (
	"testing"

	"recdb/internal/catalog"
	"recdb/internal/expr"
	"recdb/internal/sql"
	"recdb/internal/types"
)

func compileCol(t *testing.T, qualifier, name string, schema *types.Schema) expr.Compiled {
	t.Helper()
	c, err := expr.Compile(&sql.ColumnRef{Qualifier: qualifier, Name: name}, schema)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestHashAggregateGrouped(t *testing.T) {
	cat := catalog.New(nil, 0)
	ratings := ratingsFixture(t, cat) // 7 rows
	scan := NewSeqScan(ratings, "r")
	schema := scan.Schema()
	uid := compileCol(t, "r", "uid", schema)
	val := compileCol(t, "r", "ratingval", schema)

	outSchema := types.NewSchema(
		types.Column{Name: "uid", Kind: types.KindInt},
		types.Column{Name: "n", Kind: types.KindInt},
		types.Column{Name: "total", Kind: types.KindFloat},
		types.Column{Name: "mean", Kind: types.KindFloat},
		types.Column{Name: "lo", Kind: types.KindFloat},
		types.Column{Name: "hi", Kind: types.KindFloat},
	)
	agg := NewHashAggregate(scan, []expr.Compiled{uid}, []AggSpec{
		{Kind: sql.AggCountStar},
		{Kind: sql.AggSum, Arg: val},
		{Kind: sql.AggAvg, Arg: val},
		{Kind: sql.AggMin, Arg: val},
		{Kind: sql.AggMax, Arg: val},
	}, outSchema)
	rows, err := Collect(agg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("groups: %d", len(rows))
	}
	byUID := map[int64]types.Row{}
	for _, r := range rows {
		byUID[r[0].Int()] = r
	}
	// User 2 rated 3 items: 3.5 + 4.5 + 2 = 10.
	u2 := byUID[2]
	if u2[1].Int() != 3 || u2[2].Float() != 10 || u2[3].Float() != 10.0/3 {
		t.Fatalf("user 2 aggregates: %v", u2)
	}
	if u2[4].Float() != 2 || u2[5].Float() != 4.5 {
		t.Fatalf("user 2 min/max: %v", u2)
	}
}

func TestHashAggregateGlobalAndEmpty(t *testing.T) {
	cat := catalog.New(nil, 0)
	ratings := ratingsFixture(t, cat)
	scan := NewSeqScan(ratings, "r")
	val := compileCol(t, "r", "ratingval", scan.Schema())
	outSchema := types.NewSchema(
		types.Column{Name: "n", Kind: types.KindInt},
		types.Column{Name: "s", Kind: types.KindFloat},
	)
	agg := NewHashAggregate(scan, nil, []AggSpec{
		{Kind: sql.AggCountStar}, {Kind: sql.AggSum, Arg: val},
	}, outSchema)
	rows, err := Collect(agg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0][0].Int() != 7 {
		t.Fatalf("global: %v", rows)
	}

	// Empty input still yields one global row: COUNT 0, SUM NULL.
	empty, _ := cat.CreateTable("empty", ratings.Schema, -1)
	scan2 := NewSeqScan(empty, "e")
	val2 := compileCol(t, "e", "ratingval", scan2.Schema())
	agg2 := NewHashAggregate(scan2, nil, []AggSpec{
		{Kind: sql.AggCountStar}, {Kind: sql.AggSum, Arg: val2},
	}, outSchema)
	rows, err = Collect(agg2)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0][0].Int() != 0 || !rows[0][1].IsNull() {
		t.Fatalf("empty global: %v", rows)
	}
}

func TestAggregateSkipsNulls(t *testing.T) {
	cat := catalog.New(nil, 0)
	schema := types.NewSchema(types.Column{Name: "v", Kind: types.KindInt})
	tab := newTable(t, cat, "t", schema, -1, []types.Row{
		{types.NewInt(10)}, {types.Null()}, {types.NewInt(20)}, {types.Null()},
	})
	scan := NewSeqScan(tab, "t")
	v := compileCol(t, "t", "v", scan.Schema())
	outSchema := types.NewSchema(
		types.Column{Name: "star", Kind: types.KindInt},
		types.Column{Name: "nonnull", Kind: types.KindInt},
		types.Column{Name: "s", Kind: types.KindInt},
		types.Column{Name: "m", Kind: types.KindInt},
	)
	agg := NewHashAggregate(scan, nil, []AggSpec{
		{Kind: sql.AggCountStar},
		{Kind: sql.AggCount, Arg: v},
		{Kind: sql.AggSum, Arg: v},
		{Kind: sql.AggMin, Arg: v},
	}, outSchema)
	rows, err := Collect(agg)
	if err != nil {
		t.Fatal(err)
	}
	r := rows[0]
	if r[0].Int() != 4 || r[1].Int() != 2 {
		t.Fatalf("counts: %v", r)
	}
	// SUM of all-int input stays integer.
	if r[2].Kind() != types.KindInt || r[2].Int() != 30 {
		t.Fatalf("int sum: %v", r[2])
	}
	if r[3].Int() != 10 {
		t.Fatalf("min: %v", r[3])
	}
}

func TestAggregateTypeError(t *testing.T) {
	cat := catalog.New(nil, 0)
	movies := moviesFixture(t, cat)
	scan := NewSeqScan(movies, "m")
	name := compileCol(t, "m", "name", scan.Schema())
	agg := NewHashAggregate(scan, nil, []AggSpec{{Kind: sql.AggSum, Arg: name}},
		types.NewSchema(types.Column{Name: "s", Kind: types.KindFloat}))
	if err := agg.Open(); err == nil {
		t.Fatal("SUM over text should fail")
	}
	// MIN/MAX over text is fine.
	scan2 := NewSeqScan(movies, "m")
	name2 := compileCol(t, "m", "name", scan2.Schema())
	agg2 := NewHashAggregate(scan2, nil, []AggSpec{{Kind: sql.AggMax, Arg: name2}},
		types.NewSchema(types.Column{Name: "m", Kind: types.KindText}))
	rows, err := Collect(agg2)
	if err != nil || rows[0][0].Text() != "The Matrix" {
		t.Fatalf("MAX(text): %v %v", rows, err)
	}
}

func TestDistinct(t *testing.T) {
	cat := catalog.New(nil, 0)
	movies := moviesFixture(t, cat)
	scan := NewSeqScan(movies, "m")
	genre := compileCol(t, "m", "genre", scan.Schema())
	proj := NewProject(scan, []expr.Compiled{genre},
		types.NewSchema(types.Column{Name: "genre", Kind: types.KindText}))
	rows, err := Collect(NewDistinct(proj))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 { // Action (x2), Suspense, Sci-Fi
		t.Fatalf("distinct genres: %v", rows)
	}
}
