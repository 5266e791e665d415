package sql

import (
	"fmt"
	"strings"
	"testing"
)

// BenchmarkParse times the four statement shapes of the benchmark ledger
// (benchmark/workload.go) through ParseScript, which is what both hops of a
// routed statement run: the router to classify it, and the shard's
// session to execute it.
func BenchmarkParse(b *testing.B) {
	ids := make([]string, 32)
	for i := range ids {
		ids[i] = fmt.Sprint(1000 + 37*i)
	}
	recommend := func(algo, where string) string {
		return `SELECT R.iid, R.ratingval FROM ratings R RECOMMEND R.iid TO R.uid ON R.ratingval USING ` +
			algo + ` WHERE R.uid = 4711` + where + ` ORDER BY R.ratingval DESC LIMIT 10`
	}
	for _, bc := range []struct{ name, sql string }{
		{"lookup", `SELECT iid, ratingval FROM ratings WHERE uid = 4711`},
		{"recommend.scan", recommend("ItemCosCF", "")},
		{"recommend.vector", recommend("SVD", " AND R.iid IN ("+strings.Join(ids, ", ")+")")},
		{"insert", `INSERT INTO ratings VALUES (4711, 1234, 3.0)`},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := ParseScript(bc.sql); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
