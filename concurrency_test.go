package recdb

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// TestConcurrentReadersAndWriter exercises the narrowed locking contract:
// read-only statements take no DB-level lock at all — they read through
// the catalog's published generation and page-level snapshots — while
// writers to one table serialize on the engine's commit lock and that
// table's write gate. Under -race this covers the
// whole stack: parser, planner, executor, heap snapshots, and the buffer
// pool, with writes continuously republishing generations.
func TestConcurrentReadersAndWriter(t *testing.T) {
	db := Open()
	t.Cleanup(db.Close)
	db.MustExec(`CREATE TABLE ratings (uid INT, iid INT, ratingval FLOAT)`)
	for i := 0; i < 200; i++ {
		db.MustExec(fmt.Sprintf(`INSERT INTO ratings VALUES (%d, %d, %g)`, i%20, i, float64(i%5)+0.5))
	}

	const readers = 4
	var wg sync.WaitGroup
	var failed atomic.Bool
	stop := make(chan struct{})

	fail := func(format string, args ...any) {
		if failed.CompareAndSwap(false, true) {
			t.Errorf(format, args...)
		}
	}

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				rows, err := db.Query(`SELECT uid, iid, ratingval FROM ratings WHERE uid = 7`)
				if err != nil {
					fail("reader query: %v", err)
					return
				}
				// Each result set is one snapshot: every row must be
				// complete and belong to the predicate.
				for rows.Next() {
					var uid, iid int64
					var rv float64
					if err := rows.Scan(&uid, &iid, &rv); err != nil {
						fail("reader scan: %v", err)
						return
					}
					if uid != 7 {
						fail("predicate violated: uid=%d", uid)
						return
					}
				}
			}
		}()
	}

	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stop)
		for i := 0; i < 300; i++ {
			if _, err := db.Exec(fmt.Sprintf(`INSERT INTO ratings VALUES (7, %d, 2.5)`, 1000+i)); err != nil {
				fail("writer: %v", err)
				return
			}
		}
	}()

	wg.Wait()
}
