// Caching: a walkthrough of §IV-C/D — pre-computation in the
// RecScoreIndex, the hotness-driven caching algorithm, model maintenance
// on inserts, and the query-plan changes each one causes.
package main

import (
	"fmt"
	"log"
	"strings"
	"time"

	"recdb"
)

func main() {
	db := recdb.Open(
		recdb.WithHotnessThreshold(0.3),
		recdb.WithRebuildThresholdPct(10),
	)
	defer db.Close()

	loadRatings(db)
	db.MustExec(`CREATE RECOMMENDER CachedRec ON ratings
		USERS FROM uid ITEMS FROM iid RATINGS FROM ratingval USING ItemCosCF`)

	topK := func(user int64) (time.Duration, string) {
		start := time.Now()
		rows, err := db.Query(fmt.Sprintf(`SELECT R.iid, R.ratingval FROM ratings R
			RECOMMEND R.iid TO R.uid ON R.ratingval USING ItemCosCF
			WHERE R.uid = %d ORDER BY R.ratingval DESC LIMIT 10`, user))
		if err != nil {
			log.Fatal(err)
		}
		return time.Since(start), rows.Strategy()
	}

	// 1. Cold: every query predicts online.
	d, plan := topK(5)
	fmt.Printf("cold top-10 for user 5:     %8v  [plan: %s]\n", d.Round(time.Microsecond), plan)

	// 2. Pre-compute user 5's RecTree: the planner switches to the
	// RecScoreIndex (Algorithm 3) and latency drops.
	if err := db.MaterializeUser("CachedRec", 5); err != nil {
		log.Fatal(err)
	}
	d, plan = topK(5)
	fmt.Printf("warm top-10 for user 5:     %8v  [plan: %s]\n", d.Round(time.Microsecond), plan)

	// 3. Hotness-driven caching: user 6 issues many queries (demand) while
	// item 3 receives rating updates (consumption). The cache manager's
	// next pass finds user 6 hot and fills its RecTree on its own, so the
	// planner switches user 6 to the RecScoreIndex too. User 5's two
	// queries leave it cold, and its tree is dropped.
	for i := 0; i < 40; i++ {
		topK(6)
	}
	db.MustExec(`INSERT INTO ratings VALUES (41, 3, 4.0)`) // consumption on item 3
	dec, err := db.RunCacheMaintenance("CachedRec")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ncache maintenance: admitted %d users, evicted %d\n", dec.Admitted, dec.Evicted)
	d, plan = topK(6)
	fmt.Printf("user 6's top-10 after maintenance: [plan: %s] %v\n", plan, d.Round(time.Microsecond))

	// 4. Model maintenance: inserts beyond N% of the build size trigger a
	// rebuild, which invalidates the RecScoreIndex (stale predictions are
	// never served).
	var inserts []string
	for i := 0; i < 50; i++ {
		inserts = append(inserts, fmt.Sprintf("(%d, %d, %g)", 30+i%10, 1+i%20, float64(1+i%5)))
	}
	db.MustExec("INSERT INTO ratings VALUES " + strings.Join(inserts, ", "))
	d, plan = topK(5)
	fmt.Printf("after rebuild, user 5:      %8v  [plan: %s]  (index invalidated)\n",
		d.Round(time.Microsecond), plan)

	// 5. Full materialization restores the fast path for everyone.
	if err := db.Materialize("CachedRec"); err != nil {
		log.Fatal(err)
	}
	d, plan = topK(5)
	fmt.Printf("after full materialization: %8v  [plan: %s]\n", d.Round(time.Microsecond), plan)

	// 6. A background daemon can run the cache manager periodically, as
	// the paper's asynchronous materialization manager does.
	if err := db.StartCacheDaemon("CachedRec", 50*time.Millisecond); err != nil {
		log.Fatal(err)
	}
	time.Sleep(120 * time.Millisecond)
	if err := db.StopCacheDaemon("CachedRec"); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nbackground cache daemon ran and stopped cleanly")
}

func loadRatings(db *recdb.DB) {
	db.MustExec(`CREATE TABLE ratings (uid INT, iid INT, ratingval FLOAT)`)
	var rows []string
	for u := 1; u <= 40; u++ {
		for i := 1; i <= 60; i++ {
			if (u*5+i*3)%7 != 0 {
				continue
			}
			rows = append(rows, fmt.Sprintf("(%d, %d, %d)", u, i, 1+(u+i)%5))
		}
	}
	db.MustExec("INSERT INTO ratings VALUES " + strings.Join(rows, ", "))
	fmt.Printf("loaded %d ratings (40 users, 60 items)\n\n", len(rows))
}
