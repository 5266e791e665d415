package recdb

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"

	"recdb/internal/engine"
	"recdb/internal/rec"
	"recdb/internal/types"
)

// relationRows is what SELECT * over each of a store's relations must
// return, built from the store's accessors: every key in ascending order,
// each key's rows ascending in id, as (key, id, value) or (key, value).
func relationRows(s *rec.ModelStore) map[string][]types.Row {
	out := map[string][]types.Row{}
	runs := func(name string, keys []int64, run func(int64) []rec.Neighbor) {
		out[name] = []types.Row{}
		for _, k := range keys {
			for _, n := range run(k) {
				out[name] = append(out[name], types.Row{types.NewInt(k), types.NewInt(n.ID), types.NewFloat(n.Sim)})
			}
		}
	}
	runs("uservector", s.UserIDs(), s.UserItems)
	switch {
	case s.Algo.ItemBased():
		runs("itemneighborhood", s.ItemIDs(), s.ItemNeighbors)
	case s.Algo.UserBased():
		runs("userneighborhood", s.UserIDs(), s.UserNeighbors)
		runs("itemvector", s.ItemIDs(), s.ItemRaters)
	case s.Algo == rec.SVD:
		for name, side := range map[string]struct {
			keys []int64
			vec  func(int64) []float64
		}{"userfactor": {s.UserIDs(), s.UserFactors}, "itemfactor": {s.ItemIDs(), s.ItemFactors}} {
			for _, k := range side.keys {
				parts := make([]string, len(side.vec(k)))
				for f, x := range side.vec(k) {
					parts[f] = strconv.FormatFloat(x, 'g', -1, 64)
				}
				out[name] = append(out[name], types.Row{types.NewInt(k), types.NewText(strings.Join(parts, ","))})
			}
		}
	case s.Algo == rec.Popularity:
		for _, i := range s.ItemIDs() {
			score, _ := s.ItemScoreOf(i)
			out["itemscore"] = append(out["itemscore"], types.Row{types.NewInt(i), types.NewFloat(score)})
		}
	}
	return out
}

// rowDiff reports the first difference between two row lists, floats
// compared by math.Float64bits, or "" when there is none.
func rowDiff(got, want []types.Row) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d rows, want %d", len(got), len(want))
	}
	for x := range want {
		same := len(got[x]) == len(want[x])
		for c := 0; same && c < len(want[x]); c++ {
			g, w := got[x][c], want[x][c]
			if w.Kind() == types.KindFloat {
				same = g.Kind() == types.KindFloat && math.Float64bits(g.Float()) == math.Float64bits(w.Float())
			} else {
				same = g.Kind() == w.Kind() && g.String() == w.String()
			}
		}
		if !same {
			return fmt.Sprintf("row %d is %v, want %v", x, got[x], want[x])
		}
	}
	return ""
}

// TestModelRelationsEqualTheirModel: for every algorithm, SELECT * over
// each of the recommender's _rec_ relations returns its model's rows in
// key order, value for value, and after a rebuild the new model's rows;
// INSERT, UPDATE, DELETE and DROP TABLE on one are refused with a
// *rec.ModelTableError; and DB.Tables lists each relation with its row
// count and no pages.
func TestModelRelationsEqualTheirModel(t *testing.T) {
	for _, algo := range Algorithms() {
		t.Run(algo, func(t *testing.T) {
			db := Open(WithRebuildThresholdPct(1000))
			defer db.Close()
			db.MustExec(`CREATE TABLE ratings (uid INT, iid INT, ratingval FLOAT)`)
			var vals []string
			for u := 1; u <= 12; u++ {
				for i := 1; i <= 20; i++ {
					if (u*7+i*3)%4 == 0 {
						vals = append(vals, fmt.Sprintf("(%d, %d, %d.%d)", u, i, 1+(u+i)%5, (u*i)%10))
					}
				}
			}
			db.MustExec("INSERT INTO ratings VALUES " + strings.Join(vals, ", "))
			db.MustExec(`CREATE RECOMMENDER M ON ratings USERS FROM uid ITEMS FROM iid
				RATINGS FROM ratingval USING ` + algo)
			r, ok := db.eng.Recommenders().Get("M")
			if !ok {
				t.Fatal("no recommender M")
			}
			check := func(when string) map[string][]types.Row {
				t.Helper()
				want := relationRows(r.Store())
				listed := map[string]TableInfo{}
				for _, ti := range db.Tables() {
					listed[ti.Name] = ti
				}
				for suffix, rows := range want {
					name := "_rec_m_" + suffix
					res, err := db.eng.Query("SELECT * FROM " + name)
					if err != nil {
						t.Fatalf("%s: %s: %v", when, name, err)
					}
					if d := rowDiff(res.Rows, rows); d != "" {
						t.Fatalf("%s: %s: %s", when, name, d)
					}
					if ti, ok := listed[name]; !ok || ti.Rows != int64(len(rows)) || ti.Pages != 0 {
						t.Fatalf("%s: Tables lists %s as %+v (present %v), want %d rows and 0 pages", when, name, ti, ok, len(rows))
					}
					delete(listed, name)
				}
				for name := range listed {
					if strings.HasPrefix(name, "_rec_") {
						t.Fatalf("%s: Tables lists %s, which the model does not have", when, name)
					}
				}
				return want
			}
			before := check("first build")
			db.MustExec("INSERT INTO ratings VALUES (3, 99, 4.5), (99, 2, 1.5)")
			if err := db.eng.Recommenders().Rebuild("M"); err != nil {
				t.Fatal(err)
			}
			after := check("after a rebuild")
			if len(after["uservector"]) != len(before["uservector"])+2 {
				t.Fatalf("the rebuild's uservector has %d rows, the first build's %d", len(after["uservector"]), len(before["uservector"]))
			}
			for suffix := range after {
				name := "_rec_m_" + suffix
				for what, stmt := range map[string]string{
					"INSERT":     "INSERT INTO " + name + " VALUES (1, 2, 3)",
					"UPDATE":     "UPDATE " + name + " SET uid = 0",
					"DELETE":     "DELETE FROM " + name,
					"DROP TABLE": "DROP TABLE " + name,
				} {
					_, err := db.Exec(stmt)
					var mte *rec.ModelTableError
					if !errors.As(err, &mte) || mte.Statement != what || mte.Recommender != "M" {
						t.Fatalf("%s: got %v, want a *rec.ModelTableError", stmt, err)
					}
				}
			}
			check("after refused writes")
		})
	}
}

// TestReservedTableNamesAreRefused: CREATE TABLE of a name in the engine's
// reserved prefixes — a recommender's model relations (_rec_) and the
// OnTopDB scratch table (_ontop_), neither of which a snapshot stores —
// fails at statement time with an *engine.ReservedNameError and leaves no
// table behind, so no acknowledged row can be lost at a checkpoint; a plain
// name keeps its row across SaveTo and OpenDir.
func TestReservedTableNamesAreRefused(t *testing.T) {
	dir := t.TempDir()
	db := Open()
	for _, name := range []string{"_rec_mine", "_ONTOP_mine", "_rec_foo_uservector"} {
		_, err := db.Exec("CREATE TABLE " + name + " (x INT)")
		var rne *engine.ReservedNameError
		if !errors.As(err, &rne) || !strings.EqualFold(rne.Table, name) {
			t.Fatalf("CREATE TABLE %s: got %v, want an *engine.ReservedNameError", name, err)
		}
		if db.eng.Catalog().Has(name) {
			t.Fatalf("refused CREATE TABLE %s left a table", name)
		}
	}
	db.MustExec("CREATE TABLE plain_mine (x INT)")
	db.MustExec("INSERT INTO plain_mine VALUES (7)")
	if err := db.SaveTo(dir); err != nil {
		t.Fatal(err)
	}
	db.Close()
	db, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	res, err := db.eng.Query("SELECT x FROM plain_mine")
	if err != nil || len(res.Rows) != 1 || res.Rows[0][0].Int() != 7 {
		t.Fatalf("plain_mine after reopen: %v, %v", res, err)
	}
	for _, name := range []string{"_rec_mine", "_ontop_mine"} {
		if db.eng.Catalog().Has(name) {
			t.Fatalf("%s exists after reopen", name)
		}
	}
}
