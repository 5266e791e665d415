package plan

import (
	"errors"
	"testing"

	"recdb/internal/catalog"
	"recdb/internal/exec"
	"recdb/internal/rec"
	"recdb/internal/recindex"
	"recdb/internal/sql"
	"recdb/internal/types"
)

// fixture builds a catalog with ratings + movies, a recommender manager
// with an ItemCosCF recommender, and a planner.
func fixture(t *testing.T) (*Planner, *recindex.Index) {
	t.Helper()
	cat := catalog.New(nil, 0)
	ratings, err := cat.CreateTable("ratings", types.NewSchema(
		types.Column{Name: "uid", Kind: types.KindInt},
		types.Column{Name: "iid", Kind: types.KindInt},
		types.Column{Name: "ratingval", Kind: types.KindFloat},
	), -1)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range [][3]float64{
		{1, 1, 1.5}, {2, 2, 3.5}, {2, 1, 4.5}, {2, 3, 2},
		{3, 2, 1}, {3, 1, 2}, {4, 2, 1},
	} {
		ratings.Insert(types.Row{
			types.NewInt(int64(r[0])), types.NewInt(int64(r[1])), types.NewFloat(r[2]),
		})
	}
	movies, _ := cat.CreateTable("movies", types.NewSchema(
		types.Column{Name: "mid", Kind: types.KindInt},
		types.Column{Name: "name", Kind: types.KindText},
		types.Column{Name: "genre", Kind: types.KindText},
	), 0)
	for _, m := range []struct {
		id    int64
		name  string
		genre string
	}{
		{1, "Spartacus", "Action"}, {2, "Inception", "Suspense"}, {3, "The Matrix", "Sci-Fi"},
	} {
		movies.Insert(types.Row{types.NewInt(m.id), types.NewText(m.name), types.NewText(m.genre)})
	}
	mgr := rec.NewManager(cat, rec.Options{})
	r, err := mgr.Create("GeneralRec", "ratings", "uid", "iid", "ratingval", "ItemCosCF")
	if err != nil {
		t.Fatal(err)
	}
	return &Planner{Catalog: cat, Rec: mgr}, r.Cache().Index()
}

func planQuery(t *testing.T, p *Planner, q string) (exec.Operator, *Explain) {
	t.Helper()
	stmt, err := sql.Parse(q)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	op, ex, err := p.PlanSelect(stmt.(*sql.Select))
	if err != nil {
		t.Fatalf("plan: %v", err)
	}
	return op, ex
}

func TestStrategySelection(t *testing.T) {
	p, ix := fixture(t)
	cases := []struct {
		q    string
		want string
	}{
		{`SELECT R.uid FROM ratings R RECOMMEND R.iid TO R.uid ON R.ratingval`, "Recommend"},
		{`SELECT R.uid FROM ratings R RECOMMEND R.iid TO R.uid ON R.ratingval WHERE R.uid = 1`, "FilterRecommend"},
		{`SELECT R.uid FROM ratings R RECOMMEND R.iid TO R.uid ON R.ratingval WHERE R.iid IN (1,2)`, "FilterRecommend"},
		{`SELECT R.uid FROM ratings R RECOMMEND R.iid TO R.uid ON R.ratingval WHERE R.ratingval > 2`, "FilterRecommend"},
		{`SELECT R.uid FROM ratings R, movies M RECOMMEND R.iid TO R.uid ON R.ratingval
		  WHERE R.uid = 1 AND M.mid = R.iid AND M.genre = 'Action'`, "JoinRecommend"},
		{`SELECT name FROM movies`, ""},
	}
	for _, c := range cases {
		_, ex := planQuery(t, p, c.q)
		if ex.Strategy != c.want {
			t.Errorf("%s\n  strategy %q, want %q", c.q, ex.Strategy, c.want)
		}
	}
	_ = ix
}

func TestIndexStrategyRequiresCoverage(t *testing.T) {
	p, ix := fixture(t)
	q := `SELECT R.uid FROM ratings R RECOMMEND R.iid TO R.uid ON R.ratingval
	      WHERE R.uid = 1 ORDER BY R.ratingval DESC LIMIT 5`
	_, ex := planQuery(t, p, q)
	if ex.Strategy != "FilterRecommend" {
		t.Fatalf("without coverage: %q", ex.Strategy)
	}
	// Another user's tree is not coverage.
	fill := func(u int64) {
		ix.Fill(ix.Generation(), u, []recindex.Entry{{Item: 2, Score: 4.0}, {Item: 3, Score: 2.0}})
	}
	fill(2)
	if _, ex = planQuery(t, p, q); ex.Strategy != "FilterRecommend" {
		t.Fatalf("another user's tree: %q", ex.Strategy)
	}
	fill(1)
	_, ex = planQuery(t, p, q)
	if ex.Strategy != "IndexRecommend" || !ex.SortSkipped {
		t.Fatalf("with coverage: %+v", ex)
	}
	// Every requested user needs a tree.
	q3 := `SELECT R.uid FROM ratings R RECOMMEND R.iid TO R.uid ON R.ratingval
	       WHERE R.uid IN (1, 3) ORDER BY R.ratingval DESC LIMIT 5`
	if _, ex = planQuery(t, p, q3); ex.Strategy != "FilterRecommend" {
		t.Fatalf("user 3 without a tree: %q", ex.Strategy)
	}
	// Dropping the tree (a cold user, Algorithm 4) ends it.
	ix.RemoveUser(1)
	if _, ex = planQuery(t, p, q); ex.Strategy != "FilterRecommend" {
		t.Fatalf("after the tree was dropped: %q", ex.Strategy)
	}
	fill(1)
	// Ascending order cannot skip the sort or use the limit pushdown, but
	// the index path still applies.
	q2 := `SELECT R.uid FROM ratings R RECOMMEND R.iid TO R.uid ON R.ratingval
	       WHERE R.uid = 1 ORDER BY R.ratingval ASC LIMIT 5`
	_, ex = planQuery(t, p, q2)
	if ex.Strategy != "IndexRecommend" || ex.SortSkipped {
		t.Fatalf("ascending: %+v", ex)
	}
}

// TestForcedSource: Planner.Source overrides the policy, leaves what the
// forced source cannot absorb above the operator, and refuses a source the
// statement is not eligible for instead of falling back.
func TestForcedSource(t *testing.T) {
	p, ix := fixture(t)
	ix.Fill(ix.Generation(), 1, []recindex.Entry{{Item: 2, Score: 4.0}})
	plan := func(q string) (exec.Operator, *Explain, error) {
		stmt, err := sql.Parse(q)
		if err != nil {
			t.Fatal(err)
		}
		return p.PlanSelect(stmt.(*sql.Select))
	}

	q := `SELECT R.uid, R.iid FROM ratings R RECOMMEND R.iid TO R.uid ON R.ratingval
	      WHERE R.uid = 1 AND R.iid IN (3, 2) ORDER BY R.ratingval DESC LIMIT 1`
	if _, ex := planQuery(t, p, q); ex.Strategy != "IndexRecommend" || !ex.SortSkipped {
		t.Fatalf("policy: %+v", ex)
	}
	p.Source = exec.SourceList
	if _, ex := planQuery(t, p, q); ex.Strategy != "FilterRecommend" || !ex.SortSkipped {
		t.Fatalf("list forced: %+v", ex)
	}
	// The scan source cannot absorb the iid list: it stays a filter above
	// the operator, which therefore may not be handed the LIMIT.
	p.Source = exec.SourceScan
	op, ex := planQuery(t, p, q)
	if ex.Strategy != "FilterRecommend" || ex.SortSkipped {
		t.Fatalf("scan forced: %+v", ex)
	}
	rows := runAll(t, op)
	if len(rows) != 1 || (rows[0][1].Int() != 2 && rows[0][1].Int() != 3) {
		t.Fatalf("scan-forced plan leaked past its residual filter: %v", rows)
	}

	// A forced source that does not apply is a plan error, never a silent
	// fallback.
	for src, q := range map[exec.Source]string{
		exec.SourceList:    `SELECT R.uid FROM ratings R RECOMMEND R.iid TO R.uid ON R.ratingval WHERE R.uid = 1`,
		exec.SourceOuter:   `SELECT R.uid FROM ratings R RECOMMEND R.iid TO R.uid ON R.ratingval WHERE R.uid = 1`,
		exec.SourceRecTree: `SELECT R.uid FROM ratings R RECOMMEND R.iid TO R.uid ON R.ratingval WHERE R.uid = 2`,
		exec.SourceIVF:     `SELECT R.uid FROM ratings R RECOMMEND R.iid TO R.uid ON R.ratingval WHERE R.uid = 1 ORDER BY R.ratingval DESC LIMIT 3`,
	} {
		p.Source = src
		if _, _, err := plan(q); !errors.Is(err, ErrSourceIneligible) {
			t.Errorf("forcing %s: err = %v, want ErrSourceIneligible", src, err)
		}
	}

	// Forcing scan or list leaves an item join above the operator.
	p.Source = exec.SourceScan
	jq := `SELECT R.uid FROM ratings R, movies M RECOMMEND R.iid TO R.uid ON R.ratingval
	       WHERE R.uid = 1 AND M.mid = R.iid AND M.genre = 'Action'`
	if _, ex := planQuery(t, p, jq); ex.Strategy != "FilterRecommend" {
		t.Fatalf("join under forced scan: %q", ex.Strategy)
	}
}

func TestPlanEquivalenceAcrossStrategies(t *testing.T) {
	// The JoinRecommend plan and the forced-scan (FilterRecommend +
	// HashJoin) plan must produce the same rows.
	p, _ := fixture(t)
	q := `SELECT R.uid, M.name, R.ratingval FROM ratings R, movies M
	      RECOMMEND R.iid TO R.uid ON R.ratingval
	      WHERE R.uid = 3 AND M.mid = R.iid AND M.genre = 'Sci-Fi'`
	opA, exA := planQuery(t, p, q)
	rowsA, err := exec.Collect(opA)
	if err != nil {
		t.Fatal(err)
	}
	p.Source = exec.SourceScan
	opB, exB := planQuery(t, p, q)
	rowsB, err := exec.Collect(opB)
	if err != nil {
		t.Fatal(err)
	}
	if exA.Strategy == exB.Strategy {
		t.Fatalf("expected different strategies, both %q", exA.Strategy)
	}
	if len(rowsA) != len(rowsB) {
		t.Fatalf("row counts: %d vs %d", len(rowsA), len(rowsB))
	}
	for i := range rowsA {
		if rowsA[i].String() != rowsB[i].String() {
			t.Fatalf("row %d: %v vs %v", i, rowsA[i], rowsB[i])
		}
	}
}

func TestConflictingUserPredicates(t *testing.T) {
	p, _ := fixture(t)
	op, _ := planQuery(t, p, `SELECT R.uid FROM ratings R
		RECOMMEND R.iid TO R.uid ON R.ratingval
		WHERE R.uid = 1 AND R.uid = 2`)
	rows, err := exec.Collect(op)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 0 {
		t.Fatalf("contradictory predicates: %v", rows)
	}
}

func TestPlanErrors(t *testing.T) {
	p, _ := fixture(t)
	bad := []string{
		`SELECT x FROM ratings`,                                                               // unknown column
		`SELECT uid FROM nosuch`,                                                              // unknown table
		`SELECT uid FROM ratings LIMIT uid`,                                                   // non-literal limit
		`SELECT uid FROM ratings R LIMIT -1`,                                                  // negative limit
		`SELECT Q.uid FROM ratings R RECOMMEND Q.iid TO Q.uid ON Q.ratingval`,                 // bad qualifier
		`SELECT R.uid FROM ratings R RECOMMEND R.iid TO R.uid ON R.ratingval USING UserCosCF`, // no such recommender
	}
	for _, q := range bad {
		stmt, err := sql.Parse(q)
		if err != nil {
			t.Fatalf("parse %q: %v", q, err)
		}
		if _, _, err := p.PlanSelect(stmt.(*sql.Select)); err == nil {
			t.Errorf("PlanSelect(%q): expected error", q)
		}
	}
}

func TestStarExpansion(t *testing.T) {
	p, _ := fixture(t)
	op, _ := planQuery(t, p, `SELECT * FROM movies`)
	if op.Schema().Len() != 3 {
		t.Fatalf("star schema: %v", op.Schema().Columns)
	}
	// Star mixed with expressions.
	op, _ = planQuery(t, p, `SELECT mid + 1, * FROM movies`)
	if op.Schema().Len() != 4 {
		t.Fatalf("mixed star: %v", op.Schema().Columns)
	}
}

// TestRecordDemand: planning a RECOMMEND statement records no demand;
// RecordDemand feeds the users its predicate names to the recommender's
// Users Histogram.
func TestRecordDemand(t *testing.T) {
	p, _ := fixture(t)
	_, ex := planQuery(t, p, `SELECT R.uid FROM ratings R
		RECOMMEND R.iid TO R.uid ON R.ratingval WHERE R.uid = 2`)
	r, _ := p.Rec.Get("GeneralRec")
	if _, ok := r.Cache().UserStatOf(2); ok {
		t.Fatal("planning alone recorded demand")
	}
	ex.RecordDemand()
	if s, ok := r.Cache().UserStatOf(2); !ok || s.QueryCount != 1 {
		t.Fatalf("after RecordDemand: %+v, %v", s, ok)
	}
	_, ex = planQuery(t, p, `SELECT uid FROM ratings WHERE uid = 2`)
	ex.RecordDemand() // a plain query has none to record
	if s, _ := r.Cache().UserStatOf(2); s.QueryCount != 1 {
		t.Fatalf("a plain query recorded demand: %+v", s)
	}
}

// TestEqualityIndexSelection: an equality conjunct on a B-tree-indexed
// column becomes an IndexScan probe with the equality retained as a
// recheck filter; non-indexed columns and non-equality predicates keep
// the sequential scan.
func TestEqualityIndexSelection(t *testing.T) {
	p, _ := fixture(t)
	tab, err := p.Catalog.Get("ratings")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tab.CreateIndex("ratings_uid", "uid"); err != nil {
		t.Fatal(err)
	}

	find := func(op exec.Operator) *exec.IndexScan {
		for {
			switch v := op.(type) {
			case *exec.IndexScan:
				return v
			case *exec.Filter:
				op = v.Child
			case *exec.Project:
				op = v.Child
			default:
				return nil
			}
		}
	}

	op, _ := planQuery(t, p, `SELECT iid FROM ratings WHERE uid = 2`)
	is := find(op)
	if is == nil {
		t.Fatalf("expected IndexScan under the plan, got %T", op)
	}
	if is.Index.Name != "ratings_uid" {
		t.Fatalf("picked index %q", is.Index.Name)
	}
	if _, ok := op.(*exec.Project); !ok {
		t.Fatalf("plan root: %T", op)
	}
	// The recheck filter must still be present above the scan.
	rows := runAll(t, op)
	if len(rows) != 3 {
		t.Fatalf("uid=2 returned %d rows, want 3", len(rows))
	}

	// Reversed operand order probes too.
	if find(mustPlan(t, p, `SELECT iid FROM ratings WHERE 2 = uid`)) == nil {
		t.Fatal("const = col should use the index")
	}
	// Int literal against a float-typed indexed column coerces.
	if _, err := tab.CreateIndex("ratings_rv", "ratingval"); err != nil {
		t.Fatal(err)
	}
	if find(mustPlan(t, p, `SELECT iid FROM ratings WHERE ratingval = 1`)) == nil {
		t.Fatal("int literal on float index should coerce and probe")
	}
	// Non-equality and non-indexed predicates stay sequential.
	if find(mustPlan(t, p, `SELECT iid FROM ratings WHERE iid = 1`)) != nil {
		t.Fatal("iid has no index; expected SeqScan")
	}
}

func mustPlan(t *testing.T, p *Planner, q string) exec.Operator {
	t.Helper()
	op, _ := planQuery(t, p, q)
	return op
}

func runAll(t *testing.T, op exec.Operator) []types.Row {
	t.Helper()
	if err := op.Open(); err != nil {
		t.Fatal(err)
	}
	defer op.Close()
	var out []types.Row
	for {
		row, ok, err := op.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			return out
		}
		out = append(out, row)
	}
}
