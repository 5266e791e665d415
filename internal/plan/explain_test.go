package plan

import (
	"strings"
	"testing"

	"recdb/internal/exec"
	"recdb/internal/geo"
	"recdb/internal/recindex"
	"recdb/internal/sql"
	"recdb/internal/types"
)

func planAndDescribe(t *testing.T, p *Planner, q string) string {
	t.Helper()
	op, _ := planQuery(t, p, q)
	return strings.Join(DescribePlan(op), "\n")
}

func TestDescribePlanCoversOperators(t *testing.T) {
	p, ix := fixture(t)
	cases := []struct {
		q    string
		want []string
	}{
		{`SELECT name FROM movies WHERE genre = 'Action'`,
			[]string{"Project", "Filter", "SeqScan on movies"}},
		{`SELECT u.uid FROM ratings u, movies m WHERE u.iid = m.mid`,
			[]string{"HashJoin", "SeqScan on ratings", "SeqScan on movies"}},
		{`SELECT r1.uid FROM ratings r1, ratings r2 WHERE r1.ratingval > r2.ratingval`,
			[]string{"NestedLoopJoin", "Filter"}},
		{`SELECT DISTINCT genre FROM movies ORDER BY genre LIMIT 2`,
			[]string{"Limit 2", "Sort", "Distinct", "Project"}},
		{`SELECT genre, COUNT(*) FROM movies GROUP BY genre`,
			[]string{"HashAggregate (1 group keys, 1 aggregates)"}},
		{`SELECT R.uid FROM ratings R RECOMMEND R.iid TO R.uid ON R.ratingval`,
			[]string{"Recommend [ItemCosCF] (all users, all items)"}},
		{`SELECT R.uid FROM ratings R RECOMMEND R.iid TO R.uid ON R.ratingval WHERE R.uid = 1`,
			[]string{"FilterRecommend [ItemCosCF] (1 users, all items)"}},
		{`SELECT R.uid FROM ratings R, movies M RECOMMEND R.iid TO R.uid ON R.ratingval
		  WHERE R.uid = 1 AND M.mid = R.iid AND M.genre = 'Action'`,
			[]string{"JoinRecommend [ItemCosCF] (1 users)", "Filter", "SeqScan on movies"}},
	}
	for _, c := range cases {
		got := planAndDescribe(t, p, c.q)
		for _, want := range c.want {
			if !strings.Contains(got, want) {
				t.Errorf("%s\nplan missing %q:\n%s", c.q, want, got)
			}
		}
	}

	// IndexRecommend with the row target pushed down.
	ix.Fill(ix.Generation(), 1, []recindex.Entry{{Item: 2, Score: 4.0}, {Item: 3, Score: 2.0}})
	got := planAndDescribe(t, p, `SELECT R.uid FROM ratings R
		RECOMMEND R.iid TO R.uid ON R.ratingval
		WHERE R.uid = 1 ORDER BY R.ratingval DESC LIMIT 7`)
	if !strings.Contains(got, "IndexRecommend on RecScoreIndex (1 users, k 7)") {
		t.Fatalf("index plan:\n%s", got)
	}
}

func TestDescribeIndexScan(t *testing.T) {
	p, _ := fixture(t)
	tab, _ := p.Catalog.Get("movies")
	idx, ok := tab.IndexOn("mid")
	if !ok {
		t.Fatal("pk index missing")
	}
	lines := DescribePlan(exec.NewIndexScan(tab, idx, "m", types.NewInt(1), types.NewInt(2)))
	if !strings.Contains(lines[0], "IndexScan on movies as m using movies_pkey") {
		t.Fatalf("%v", lines)
	}
}

func TestTrySpatialScanHelpers(t *testing.T) {
	p, _ := fixture(t)
	pois, err := p.Catalog.CreateTable("pois", types.NewSchema(
		types.Column{Name: "vid", Kind: types.KindInt},
		types.Column{Name: "geom", Kind: types.KindGeometry},
	), 0)
	if err != nil {
		t.Fatal(err)
	}
	pois.Insert(types.Row{types.NewInt(1), types.NewGeometry(geo.Point{X: 1, Y: 1})})
	if _, err := pois.CreateIndex("pois_geom", "geom"); err != nil {
		t.Fatal(err)
	}

	parseCond := func(cond string) sql.Expr {
		stmt, err := sql.Parse("SELECT vid FROM pois WHERE " + cond)
		if err != nil {
			t.Fatal(err)
		}
		return stmt.(*sql.Select).Where
	}
	// Eligible forms.
	for _, cond := range []string{
		"ST_DWithin(geom, ST_Point(0,0), 5)",
		"ST_DWithin(ST_Point(0,0), geom, 5)",
		"ST_Contains(ST_GeomFromText('POLYGON((0 0,2 0,2 2,0 2))'), geom)",
		"ST_Contains(geom, ST_Point(1,1))",
	} {
		if trySpatialScan(pois, "pois", parseCond(cond)) == nil {
			t.Errorf("should be index-eligible: %s", cond)
		}
	}
	// Ineligible forms.
	for _, cond := range []string{
		"ST_DWithin(geom, ST_Point(0,0), -1)",  // negative distance
		"ST_DWithin(geom, geom, 5)",            // no constant side
		"ST_Contains(geom, geom)",              // no constant side
		"ST_Distance(geom, ST_Point(0,0)) < 5", // not a recognized call shape
		"vid = 1",                              // not spatial at all
	} {
		if trySpatialScan(pois, "pois", parseCond(cond)) != nil {
			t.Errorf("should not be index-eligible: %s", cond)
		}
	}
	// Wrong qualifier.
	if trySpatialScan(pois, "other", parseCond("ST_DWithin(pois.geom, ST_Point(0,0), 5)")) != nil {
		t.Error("wrong qualifier should not match")
	}
	// Geometry column without an index.
	noIdx, _ := p.Catalog.CreateTable("noidx", types.NewSchema(
		types.Column{Name: "geom", Kind: types.KindGeometry},
	), -1)
	if trySpatialScan(noIdx, "noidx", parseCond("ST_DWithin(geom, ST_Point(0,0), 5)")) != nil {
		t.Error("missing index should not match")
	}
}

func TestAggregatePlanDirect(t *testing.T) {
	p, _ := fixture(t)
	op, _ := planQuery(t, p, `SELECT genre, COUNT(*) AS n, MIN(mid), MAX(mid)
		FROM movies GROUP BY genre HAVING COUNT(*) >= 1 ORDER BY n DESC, genre ASC`)
	rows, err := exec.Collect(op)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("groups: %v", rows)
	}
	// Schema names come from the aliases / function names.
	names := make([]string, op.Schema().Len())
	for i, c := range op.Schema().Columns {
		names[i] = c.Name
	}
	if names[0] != "genre" || names[1] != "n" || names[2] != "min" {
		t.Fatalf("names: %v", names)
	}
}

func TestGroupByExpression(t *testing.T) {
	// Grouping by a computed expression, referenced identically in the
	// select list.
	p, _ := fixture(t)
	op, _ := planQuery(t, p, `SELECT uid * 10, COUNT(*) FROM ratings GROUP BY uid * 10 ORDER BY uid * 10`)
	rows, err := exec.Collect(op)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 || rows[0][0].Int() != 10 {
		t.Fatalf("grouped by expression: %v", rows)
	}
}

func TestNeedsAggregate(t *testing.T) {
	mustSel := func(q string) *sql.Select {
		stmt, err := sql.Parse(q)
		if err != nil {
			t.Fatal(err)
		}
		return stmt.(*sql.Select)
	}
	if needsAggregate(mustSel("SELECT a FROM t")) {
		t.Error("plain select")
	}
	if !needsAggregate(mustSel("SELECT COUNT(*) FROM t")) {
		t.Error("count")
	}
	if !needsAggregate(mustSel("SELECT a FROM t GROUP BY a")) {
		t.Error("group by")
	}
	if !needsAggregate(mustSel("SELECT a FROM t ORDER BY SUM(b)")) {
		t.Error("aggregate in order by")
	}
}
