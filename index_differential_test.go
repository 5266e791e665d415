package recdb

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"recdb/internal/types"
)

// indexKeyCase is one column kind of TestIndexPlanMatchesScanPlan: the
// SQL spelling of keys the table may hold and of constants a query may
// compare the key with. Every spelling is a literal or arithmetic over
// literals, which is all SQL has for ±Inf (1e308 * 10), NaN (Inf − Inf)
// and −0.0 (0.0 * -1.0).
type indexKeyCase struct {
	kind string
	keys []string
}

var (
	bigintKeys = []string{"0", "1", "-1", "7", "9007199254740992", "9007199254740993", "9007199254740991",
		"-9007199254740992", "-9007199254740993", "4611686018427387905", "9223372036854775807", "NULL"}
	doubleKeys = []string{"0.0", "0.0 * -1.0", "1.0", "-1.0", "0.5", "7.0", "9007199254740992.0", "9007199254740994.0",
		"1e308 * 10", "-(1e308 * 10)", "1e308 * 10 - 1e308 * 10", "2.5e-300", "NULL"}
	textKeys = []string{"''", "'a'", "'A'", "'ab'", "'b'", "'7'", "'héllo'", "'NaN'", "NULL"}
	// constants spans every kind, so each column is probed with
	// constants of its own kind, the other numeric kind and an
	// incomparable kind (which fails both plans alike).
	constants = append(append(append([]string{"TRUE"}, bigintKeys...), doubleKeys...), textKeys...)
)

// TestIndexPlanMatchesScanPlan: an equality read through a B-tree index
// returns exactly the rows, in the same order, that the same statement
// returns from an identical table without the index (a sequential scan
// and a filter), for BIGINT keys past 2⁵³, DOUBLE keys with NaN, ±Inf and
// −0.0, TEXT and NULL keys, equality constants of every kind, and deletes
// and updates between the queries. Both tables take the same statements,
// so their rows sit at the same RIDs, and an index's order among equal
// keys is RID order, which is the scan's.
func TestIndexPlanMatchesScanPlan(t *testing.T) {
	for _, c := range []indexKeyCase{{"BIGINT", bigintKeys}, {"DOUBLE", doubleKeys}, {"TEXT", textKeys}} {
		t.Run(c.kind, func(t *testing.T) {
			r := rand.New(rand.NewPCG(7, uint64(len(c.keys))))
			db := Open()
			t.Cleanup(db.Close)
			both := func(format string, args ...any) {
				for _, tab := range []string{"ti", "ts"} {
					db.MustExec(fmt.Sprintf(format, append([]any{tab}, args...)...))
				}
			}
			both("CREATE TABLE %s (k " + c.kind + ", v BIGINT, pad TEXT)")
			db.MustExec("CREATE INDEX ti_k ON ti (k)")
			key := func() string { return c.keys[r.IntN(len(c.keys))] }
			next := 0
			insert := func() {
				both("INSERT INTO %s VALUES (%s, %d, '%s')", key(), next, strings.Repeat("x", r.IntN(40)))
				next++
			}
			for range 300 {
				insert()
			}
			for round := range 6 {
				for _, k := range constants {
					query := func(tab string) string {
						return fmt.Sprintf("SELECT v, k FROM %s WHERE k = %s", tab, k)
					}
					if round == 0 {
						// The index serves every probe by a key of the
						// column's kind (NULL equals nothing), and a scan
						// that serves a probe applies it: no Filter.
						plan := explain(t, db, query("ti"))
						indexed := strings.Contains(plan, "IndexScan")
						if slices.Contains(c.keys, k) && indexed != (k != "NULL") || indexed && strings.Contains(plan, "Filter") {
							t.Fatalf("%s: %s", query("ti"), plan)
						}
					}
					got, gerr := db.Query(query("ti"))
					want, werr := db.Query(query("ts"))
					if (gerr != nil) != (werr != nil) {
						t.Fatalf("k = %s: index plan error %v, scan plan error %v", k, gerr, werr)
					}
					if gerr != nil {
						continue
					}
					if g, w := rowsText(got), rowsText(want); g != w {
						t.Fatalf("round %d, k = %s:\nindex plan %s\nscan plan  %s", round, k, g, w)
					}
				}
				// Deletes, updates that may move a row (a longer pad),
				// and fresh rows between the rounds.
				for range 40 {
					v := r.IntN(next)
					switch r.IntN(3) {
					case 0:
						both("DELETE FROM %s WHERE v = %d", v)
					case 1:
						both("UPDATE %s SET k = %s, pad = '%s' WHERE v = %d", key(), strings.Repeat("y", r.IntN(200)), v)
					default:
						insert()
					}
				}
			}
		})
	}
}

// explain returns EXPLAIN's plan of query, one line per operator.
func explain(t *testing.T, db *DB, query string) string {
	t.Helper()
	rows, err := db.Query("EXPLAIN " + query)
	if err != nil {
		t.Fatalf("EXPLAIN %s: %v", query, err)
	}
	return rowsText(rows)
}

// rowsText renders rows with each value's kind, and a DOUBLE by its bits,
// so −0.0 and 0.0, or two NaNs, print apart.
func rowsText(rows *Rows) string {
	var sb strings.Builder
	for _, row := range rows.All() {
		sb.WriteString("(")
		for i, v := range row {
			if i > 0 {
				sb.WriteString(", ")
			}
			if f := v.Float(); v.Kind() == types.KindFloat {
				sb.WriteString(strconv.FormatUint(math.Float64bits(f), 16))
			} else {
				sb.WriteString(v.Kind().String() + ":" + v.String())
			}
		}
		sb.WriteString(")")
	}
	return sb.String()
}

// TestIndexReadStableUnderWriter: one user's indexed read returns the
// same rows, in the same order, every time while a writer inserts,
// updates and deletes other users' rows of the same table — freeing and
// reusing slots on the pages the read's rows share, and moving rows. Run
// under -race it also checks the batched heap read against the writers'
// page edits.
func TestIndexReadStableUnderWriter(t *testing.T) {
	db := Open()
	t.Cleanup(db.Close)
	db.MustExec(`CREATE TABLE ratings (uid BIGINT, iid BIGINT, ratingval DOUBLE, note TEXT)`)
	db.MustExec(`CREATE INDEX ratings_uid ON ratings (uid)`)
	for i := range 120 {
		db.MustExec(fmt.Sprintf("INSERT INTO ratings VALUES (7, %d, %d.5, 'r'), (%d, %d, 1.0, 'o')", i, i%5, 8+i%20, i))
	}
	const q = `SELECT iid, ratingval FROM ratings WHERE uid = 7`
	first, err := db.Query(q)
	if err != nil || first.Len() != 120 {
		t.Fatalf("%s: %v rows, %v", q, first, err)
	}
	want := rowsText(first)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		r := rand.New(rand.NewPCG(3, 4))
		for n := 0; ; n++ {
			select {
			case <-stop:
				return
			default:
			}
			uid := 8 + r.IntN(20)
			var stmt string
			switch n % 3 {
			case 0:
				stmt = fmt.Sprintf("INSERT INTO ratings VALUES (%d, %d, 2.0, '%s')", uid, 1000+n, strings.Repeat("w", r.IntN(100)))
			case 1:
				stmt = fmt.Sprintf("UPDATE ratings SET note = '%s', uid = %d WHERE uid = %d AND iid = %d", strings.Repeat("u", r.IntN(300)), 8+r.IntN(20), uid, r.IntN(1000+n))
			default:
				stmt = fmt.Sprintf("DELETE FROM ratings WHERE uid = %d AND iid = %d", uid, r.IntN(1000+n))
			}
			if _, err := db.Exec(stmt); err != nil {
				t.Errorf("%s: %v", stmt, err)
				return
			}
		}
	}()
	for range 300 {
		rows, err := db.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if got := rowsText(rows); got != want {
			t.Fatalf("%s changed under a writer of other users' rows:\n%s\nwant\n%s", q, got, want)
		}
	}
	close(stop)
	wg.Wait()
}
