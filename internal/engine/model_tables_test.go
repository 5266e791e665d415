package engine

import (
	"context"
	"errors"
	"strings"
	"testing"

	"recdb/internal/fault"
	"recdb/internal/rec"
	"recdb/internal/sql"
)

// TestModelTablesRefuseWrites: INSERT, UPDATE, DELETE and DROP TABLE on a
// table a recommender owns fail at statement time with a
// *rec.ModelTableError that names the recommender and DROP RECOMMENDER —
// autocommit or inside a transaction — leave the table as it was, and log
// nothing. Reading the table still works, and DROP RECOMMENDER removes it.
func TestModelTablesRefuseWrites(t *testing.T) {
	e := newMovieDB(t)
	createGeneralRec(t, e)
	fs := fault.NewMemFS()
	attachLog(t, e, fs)
	const tab = "_rec_generalrec_itemneighborhood"
	count := func() int64 {
		t.Helper()
		q, err := e.Query("SELECT COUNT(*) FROM " + tab)
		if err != nil {
			t.Fatal(err)
		}
		return q.Rows[0][0].Int()
	}
	rows := count()
	if rows == 0 {
		t.Fatal("the model table is empty")
	}
	refused := func(t *testing.T, what, stmt string, err error) {
		t.Helper()
		var mte *rec.ModelTableError
		if !errors.As(err, &mte) || mte.Recommender != "GeneralRec" || mte.Statement != what ||
			!strings.Contains(err.Error(), "DROP RECOMMENDER GeneralRec") {
			t.Fatalf("%s: got %v, want a *rec.ModelTableError naming GeneralRec", stmt, err)
		}
	}
	for what, stmt := range map[string]string{
		"INSERT":     "INSERT INTO " + tab + " VALUES (1, 2, 0.5)",
		"UPDATE":     "UPDATE " + tab + " SET sim = 0",
		"DELETE":     "DELETE FROM _REC_GeneralRec_ItemNeighborhood WHERE iid = 1",
		"DROP TABLE": "DROP TABLE IF EXISTS " + tab,
	} {
		_, err := e.Exec(stmt)
		refused(t, what, stmt, err)
	}
	tx, err := e.Begin(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	inTx := func(text string) error {
		stmt, err := sql.Parse(text)
		if err != nil {
			t.Fatal(err)
		}
		_, err = tx.ExecParsedCtx(context.Background(), stmt, text)
		return err
	}
	stmt := "DELETE FROM " + tab
	refused(t, "DELETE", stmt, inTx(stmt))
	if err := inTx("INSERT INTO ratings VALUES (4, 3, 5)"); err != nil {
		t.Fatalf("the transaction did not stay usable: %v", err)
	}
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	if got := count(); got != rows {
		t.Fatalf("the model table holds %d rows, had %d", got, rows)
	}
	if recs := loggedRecords(t, fs); len(recs) != 0 {
		t.Fatalf("refused statements logged %+v", recs)
	}
	if _, err := e.Exec("DROP RECOMMENDER GeneralRec"); err != nil {
		t.Fatal(err)
	}
	if e.Catalog().Has(tab) {
		t.Fatal("DROP RECOMMENDER left the model table")
	}
}
