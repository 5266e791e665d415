package bench

import (
	"strings"
	"testing"
	"time"

	"recdb/internal/dataset"
)

const testScale = 0.08

func TestSetupAndQueries(t *testing.T) {
	env, err := Setup(dataset.MovieLens.Scaled(testScale), Algos)
	if err != nil {
		t.Fatal(err)
	}
	if env.QueryUser == 0 {
		t.Fatal("no query user chosen")
	}
	for _, algo := range Algos {
		if env.BuildTimes[algo] <= 0 {
			t.Fatalf("no build time for %s", algo)
		}
	}
	items := env.SelectivityItems(0.1)
	if len(items) < 1 {
		t.Fatal("no selectivity items")
	}
	n, err := env.RecDBSelectivity("ItemCosCF", items)
	if err != nil {
		t.Fatal(err)
	}
	m, err := env.OnTopSelectivity("ItemCosCF", items)
	if err != nil {
		t.Fatal(err)
	}
	if n != m {
		t.Fatalf("RecDB and OnTopDB disagree: %d vs %d rows", n, m)
	}
}

func TestJoinAgreement(t *testing.T) {
	env, err := Setup(dataset.LDOS.Scaled(0.5), Algos)
	if err != nil {
		t.Fatal(err)
	}
	for _, twoWay := range []bool{false, true} {
		a, err := env.RecDBJoin("ItemCosCF", twoWay)
		if err != nil {
			t.Fatal(err)
		}
		b, err := env.OnTopJoin("ItemCosCF", twoWay)
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Fatalf("join rows differ (twoWay=%v): %d vs %d", twoWay, a, b)
		}
	}
}

func TestTopKUsesIndexWhenWarm(t *testing.T) {
	env, err := Setup(dataset.MovieLens.Scaled(testScale), []string{"ItemCosCF"})
	if err != nil {
		t.Fatal(err)
	}
	_, strategy, err := env.RecDBTopK("ItemCosCF", 10)
	if err != nil {
		t.Fatal(err)
	}
	if strategy != "FilterRecommend" {
		t.Fatalf("cold strategy: %q", strategy)
	}
	if err := env.MaterializeQueryUser([]string{"ItemCosCF"}); err != nil {
		t.Fatal(err)
	}
	n, strategy, err := env.RecDBTopK("ItemCosCF", 10)
	if err != nil {
		t.Fatal(err)
	}
	if strategy != "IndexRecommend" {
		t.Fatalf("warm strategy: %q", strategy)
	}
	m, err := env.OnTopTopK("ItemCosCF", 10)
	if err != nil {
		t.Fatal(err)
	}
	if n != m {
		t.Fatalf("top-k rows differ: %d vs %d", n, m)
	}
}

func TestSelectivityItemsShape(t *testing.T) {
	env, err := Setup(dataset.LDOS.Scaled(0.5), []string{"ItemCosCF"})
	if err != nil {
		t.Fatal(err)
	}
	tiny := env.SelectivityItems(0.0000001)
	if len(tiny) != 1 {
		t.Fatalf("tiny selectivity: %d items", len(tiny))
	}
	all := env.SelectivityItems(1.0)
	if len(all) != len(env.Data.Items) {
		t.Fatalf("full selectivity: %d of %d", len(all), len(env.Data.Items))
	}
	half := env.SelectivityItems(0.5)
	if len(half) < len(all)/3 || len(half) > len(all) {
		t.Fatalf("half selectivity: %d of %d", len(half), len(all))
	}
	seen := map[int64]bool{}
	for _, id := range half {
		if seen[id] {
			t.Fatalf("duplicate item %d", id)
		}
		seen[id] = true
	}
}

func TestExperimentTablesRender(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke test is slow")
	}
	spec := dataset.LDOS.Scaled(0.6)
	checks := []struct {
		name string
		run  func() (Table, error)
	}{
		{"selectivity", func() (Table, error) { return RunSelectivity("Fig. 6", spec) }},
		{"join", func() (Table, error) { return RunJoin("Fig. 8", spec) }},
		{"topk", func() (Table, error) { return RunTopK("Fig. 10", spec) }},
		{"pushdown", func() (Table, error) { return RunAblationFilterPushdown(spec) }},
		{"joinrec", func() (Table, error) { return RunAblationJoinRecommend(spec) }},
		{"recindex", func() (Table, error) { return RunAblationRecScoreIndex(spec) }},
		{"hotness", func() (Table, error) { return RunAblationHotness(spec) }},
	}
	for _, c := range checks {
		tab, err := c.run()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if len(tab.Rows) == 0 || len(tab.Header) == 0 {
			t.Fatalf("%s: empty table", c.name)
		}
		for _, row := range tab.Rows {
			if len(row) != len(tab.Header) {
				t.Fatalf("%s: ragged row %v vs header %v", c.name, row, tab.Header)
			}
		}
	}
}

func TestRunTable2Scaled(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	tab, err := RunTable2(0.1)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("table 2 rows: %v", tab.Rows)
	}
	for _, row := range tab.Rows {
		for _, cell := range row[1:] {
			if !strings.ContainsAny(cell, "sµm") {
				t.Fatalf("cell %q does not look like a duration", cell)
			}
		}
	}
}

func TestTimeHelpers(t *testing.T) {
	d, err := Time(func() error { time.Sleep(time.Millisecond); return nil })
	if err != nil || d < time.Millisecond {
		t.Fatalf("Time: %v %v", d, err)
	}
	n := 0
	avg, err := TimeN(4, func() error { n++; return nil })
	if err != nil || n != 4 || avg < 0 {
		t.Fatalf("TimeN: %v %v n=%d", avg, err, n)
	}
}
