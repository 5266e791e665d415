package shard

import (
	"strings"
	"testing"

	"recdb/internal/engine"
	"recdb/internal/sql"
)

// fakeCatalog is a route-test schema: ratings/users carry uid, items is
// replicated, anything else is unknown.
type fakeCatalog struct{}

func (fakeCatalog) columns(table string) ([]string, bool) {
	switch strings.ToLower(table) {
	case "ratings":
		return []string{"uid", "iid", "ratingval"}, true
	case "users":
		return []string{"uid", "name"}, true
	case "items":
		return []string{"iid", "name"}, true
	}
	return nil, false
}

func (fakeCatalog) partitioned(table string) (bool, bool) {
	switch strings.ToLower(table) {
	case "ratings", "users":
		return true, true
	case "items":
		return false, true
	}
	return false, false
}

func classifyText(t *testing.T, text string) Route {
	t.Helper()
	stmt, err := sql.Parse(text)
	if err != nil {
		t.Fatalf("parse %q: %v", text, err)
	}
	return classify(stmt, "uid", fakeCatalog{})
}

func TestClassifyUserPointRead(t *testing.T) {
	r := classifyText(t, `SELECT iid FROM ratings WHERE uid = 7 AND ratingval > 3`)
	if r.Action != RouteOwner || r.User != 7 {
		t.Fatalf("got %+v, want RouteOwner user 7", r)
	}
	// Either operand order pins it.
	r = classifyText(t, `SELECT iid FROM ratings WHERE 7 = uid`)
	if r.Action != RouteOwner || r.User != 7 {
		t.Fatalf("reversed operands: got %+v", r)
	}
}

func TestClassifyRecommendUsesClauseUserColumn(t *testing.T) {
	// The RECOMMEND clause names its user column; routing must follow it
	// even when it differs from the configured default.
	stmt, err := sql.Parse(`SELECT R.iid FROM ratings R
		RECOMMEND R.iid TO R.userid ON R.ratingval USING ItemCosCF
		WHERE R.userid = 42`)
	if err != nil {
		t.Fatal(err)
	}
	r := classify(stmt, "uid", fakeCatalog{})
	if r.Action != RouteOwner || r.User != 42 {
		t.Fatalf("got %+v, want RouteOwner user 42 via the RECOMMEND clause's column", r)
	}
}

func TestClassifyUserInList(t *testing.T) {
	r := classifyText(t, `SELECT iid FROM ratings WHERE uid IN (3, 1, 2, 1) ORDER BY ratingval DESC LIMIT 5`)
	if r.Action != RouteOwners {
		t.Fatalf("got %+v, want RouteOwners", r)
	}
	want := []int64{1, 2, 3}
	if len(r.Users) != len(want) {
		t.Fatalf("users = %v, want %v", r.Users, want)
	}
	for i := range want {
		if r.Users[i] != want[i] {
			t.Fatalf("users = %v, want %v", r.Users, want)
		}
	}
	if r.Merge == nil || len(r.Merge.Keys) != 1 || r.Merge.Keys[0].Col != "ratingval" ||
		!r.Merge.Keys[0].Desc || r.Merge.Limit != 5 {
		t.Fatalf("merge = %+v", r.Merge)
	}
}

func TestClassifyReplicatedOnlyReadRoutesAny(t *testing.T) {
	r := classifyText(t, `SELECT name FROM items WHERE iid = 9`)
	if r.Action != RouteAny {
		t.Fatalf("got %+v, want RouteAny", r)
	}
}

func TestClassifyScatterWithOrderedMerge(t *testing.T) {
	r := classifyText(t, `SELECT uid, ratingval FROM ratings ORDER BY ratingval DESC, uid LIMIT 10 OFFSET 2`)
	if r.Action != RouteScatter {
		t.Fatalf("got %+v, want RouteScatter", r)
	}
	m := r.Merge
	if m == nil || len(m.Keys) != 2 || m.Keys[0].Col != "ratingval" || !m.Keys[0].Desc ||
		m.Keys[1].Col != "uid" || m.Keys[1].Desc || m.Limit != 10 || m.Offset != 2 {
		t.Fatalf("merge = %+v", m)
	}
}

func TestClassifyDenies(t *testing.T) {
	cases := []struct {
		sql  string
		want string
	}{
		{`SELECT uid, COUNT(*) FROM ratings GROUP BY uid`, "GROUP BY"},
		{`SELECT DISTINCT uid FROM ratings`, "DISTINCT"},
		{`SELECT SUM(ratingval) FROM ratings`, "aggregation"},
		{`BEGIN`, "transactions"},
		{`SELECT uid FROM ratings ORDER BY uid + 1`, "expression"},
	}
	for _, c := range cases {
		r := classifyText(t, c.sql)
		if r.Action != RouteDeny {
			t.Errorf("%s: got action %v, want RouteDeny", c.sql, r.Action)
			continue
		}
		if !strings.Contains(r.Reason, c.want) {
			t.Errorf("%s: reason %q does not mention %q", c.sql, r.Reason, c.want)
		}
	}
	// But the same shapes pinned to one user are fine.
	r := classifyText(t, `SELECT SUM(ratingval) FROM ratings WHERE uid = 3`)
	if r.Action != RouteOwner {
		t.Fatalf("user-pinned aggregate: got %+v, want RouteOwner", r)
	}
}

// TestRouterAndPlannerAgreeOnAggregates: the router refuses to scatter
// exactly the select lists the planner would put a HashAggregate under —
// no more (a denied statement the shards could have run) and no less (a
// mis-merged partial aggregate). The aggregate may sit under any
// expression node, in any case.
func TestRouterAndPlannerAgreeOnAggregates(t *testing.T) {
	eng := engine.New(engine.Config{})
	if _, err := eng.Exec(`CREATE TABLE ratings (uid INT, iid INT, ratingval FLOAT)`); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		expr string
		agg  bool
	}{
		{`COUNT(*)`, true},
		{`count(uid)`, true},
		{`Sum(ratingval)`, true},
		{`AVG(ratingval) + 1`, true},
		{`-MIN(uid)`, true},
		{`abs(max(ratingval))`, true},
		{`max(uid) IN (1, 2)`, true},
		{`3 IN (1, max(uid))`, true},
		{`min(uid) IS NULL`, true},
		{`max(uid) BETWEEN 1 AND 5`, true},
		{`2 BETWEEN 1 AND max(uid)`, true},
		{`uid`, false},
		{`uid + iid`, false},
		{`abs(ratingval)`, false},
		{`uid IN (1, 2)`, false},
		{`uid IS NULL`, false},
		{`uid BETWEEN 1 AND 5`, false},
	}
	for _, c := range cases {
		text := "SELECT " + c.expr + " FROM ratings"
		res, err := eng.Query("EXPLAIN " + text)
		if err != nil {
			t.Errorf("%s: planner: %v", text, err)
			continue
		}
		planned := false
		for _, row := range res.Rows {
			planned = planned || strings.Contains(row[0].String(), "HashAggregate")
		}
		r := classifyText(t, text)
		denied := r.Action == RouteDeny && strings.Contains(r.Reason, "aggregation")
		if planned != c.agg || denied != c.agg {
			t.Errorf("%s: planner aggregates = %v, router denies = %v, want both %v", text, planned, denied, c.agg)
		}
	}
}

func TestClassifyInsert(t *testing.T) {
	// Uniform user: one owner.
	r := classifyText(t, `INSERT INTO ratings VALUES (5, 1, 4.0), (5, 2, 3.0)`)
	if r.Action != RouteOwner || r.User != 5 {
		t.Fatalf("uniform insert: got %+v", r)
	}
	// Mixed users: split.
	r = classifyText(t, `INSERT INTO ratings (uid, iid, ratingval) VALUES (5, 1, 4.0), (6, 1, 2.0)`)
	if r.Action != RouteSplit || r.Insert == nil {
		t.Fatalf("mixed insert: got %+v", r)
	}
	if len(r.Insert.RowUsers) != 2 || r.Insert.RowUsers[0] != 5 || r.Insert.RowUsers[1] != 6 {
		t.Fatalf("row users = %v", r.Insert.RowUsers)
	}
	// No user column: replicated broadcast.
	r = classifyText(t, `INSERT INTO items VALUES (1, 'film')`)
	if r.Action != RouteBroadcast {
		t.Fatalf("replicated insert: got %+v", r)
	}
	// Positional insert into an unknown table cannot be routed.
	r = classifyText(t, `INSERT INTO mystery VALUES (1, 2)`)
	if r.Action != RouteDeny || !strings.Contains(r.Reason, "mystery") {
		t.Fatalf("unknown-table insert: got %+v", r)
	}
	// Non-literal user value cannot be routed.
	r = classifyText(t, `INSERT INTO ratings (uid, iid, ratingval) VALUES (1 + 1, 2, 3.0)`)
	if r.Action != RouteDeny {
		t.Fatalf("computed user insert: got %+v", r)
	}
}

func TestClassifyWrite(t *testing.T) {
	r := classifyText(t, `DELETE FROM ratings WHERE uid = 9`)
	if r.Action != RouteOwner || r.User != 9 {
		t.Fatalf("owner delete: got %+v", r)
	}
	r = classifyText(t, `UPDATE ratings SET ratingval = 1.0 WHERE uid IN (1, 2)`)
	if r.Action != RouteOwners || !r.Sum {
		t.Fatalf("owners update: got %+v", r)
	}
	// Partitioned table, no user predicate: broadcast summing disjoint
	// per-shard counts.
	r = classifyText(t, `DELETE FROM ratings WHERE ratingval < 1`)
	if r.Action != RouteBroadcast || !r.Sum {
		t.Fatalf("partitioned broadcast delete: got %+v", r)
	}
	// Replicated table: every shard reports the same count; take one.
	r = classifyText(t, `DELETE FROM items WHERE iid = 4`)
	if r.Action != RouteBroadcast || r.Sum {
		t.Fatalf("replicated broadcast delete: got %+v", r)
	}
}

func TestClassifyDDLBroadcasts(t *testing.T) {
	for _, text := range []string{
		`CREATE TABLE t (uid INT, x INT)`,
		`DROP TABLE ratings`,
		`CREATE INDEX ix ON ratings (iid)`,
		`CREATE RECOMMENDER rec ON ratings USERS FROM uid ITEMS FROM iid RATINGS FROM ratingval USING ItemCosCF`,
		`DROP RECOMMENDER rec`,
	} {
		if r := classifyText(t, text); r.Action != RouteBroadcast {
			t.Errorf("%s: got %+v, want RouteBroadcast", text, r)
		}
	}
}

func TestRenderInsertSubset(t *testing.T) {
	stmt, err := sql.Parse(`INSERT INTO ratings (uid, iid, ratingval) VALUES (1, 10, 4.5), (2, 20, 3.0), (1, 30, -2.0)`)
	if err != nil {
		t.Fatal(err)
	}
	ins := stmt.(*sql.Insert)
	got := renderInsert(ins, []int{0, 2})
	reparsed, err := sql.Parse(got)
	if err != nil {
		t.Fatalf("rendered %q does not reparse: %v", got, err)
	}
	sub := reparsed.(*sql.Insert)
	if sub.Table != "ratings" || len(sub.Cols) != 3 || len(sub.Rows) != 2 {
		t.Fatalf("rendered %q -> %+v", got, sub)
	}
	if u, _ := intLiteral(sub.Rows[1][0]); u != 1 {
		t.Fatalf("second sub-row user = %v, want 1 (row order preserved)", sub.Rows[1][0])
	}
	if v, _ := intLiteral(sub.Rows[1][2]); v != -2 {
		t.Fatalf("negative literal lost: %q", got)
	}
}
