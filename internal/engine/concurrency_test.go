package engine

import (
	"fmt"
	"sync"
	"testing"
)

// TestConcurrentReaders exercises parallel recommendation queries against
// one engine (run with -race to check synchronization).
func TestConcurrentReaders(t *testing.T) {
	e := newMovieDB(t)
	createGeneralRec(t, e)
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				user := 1 + (worker+i)%4
				q, err := e.Query(fmt.Sprintf(`SELECT R.iid, R.ratingval FROM ratings R
					RECOMMEND R.iid TO R.uid ON R.ratingval USING ItemCosCF
					WHERE R.uid = %d ORDER BY R.ratingval DESC LIMIT 3`, user))
				if err != nil {
					errs <- err
					return
				}
				_ = q
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestConcurrentReadersWithWrites mixes rating inserts (which can trigger
// model rebuilds and cache invalidation) with recommendation queries.
func TestConcurrentReadersWithWrites(t *testing.T) {
	e := newMovieDB(t)
	createGeneralRec(t, e)
	cache := recCache(t, e, "GeneralRec")
	if err := cache.MaterializeAll(); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	// Readers.
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for i := 0; i < 15; i++ {
				_, err := e.Query(`SELECT R.iid FROM ratings R
					RECOMMEND R.iid TO R.uid ON R.ratingval USING ItemCosCF
					WHERE R.uid = 1`)
				if err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	// Writer: inserts trigger maintenance counting (and possibly rebuilds).
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 15; i++ {
			_, err := e.Exec(fmt.Sprintf("INSERT INTO ratings VALUES (%d, %d, %d)",
				10+i, 1+i%3, 1+i%5))
			if err != nil {
				errs <- err
				return
			}
		}
	}()
	// Maintenance runner.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 5; i++ {
			cache.Run()
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// The engine remains consistent: a final query works.
	q, err := e.Query(`SELECT COUNT(*) FROM ratings`)
	if err != nil || q.Rows[0][0].Int() != 22 {
		t.Fatalf("final state: %v %v", q, err)
	}
}
