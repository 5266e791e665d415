package main

import (
	"bytes"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestStreamsDependOnlyOnSeed(t *testing.T) {
	d, err := generate(shortScale)
	if err != nil {
		t.Fatal(err)
	}
	take := func(seed int64, w workload) []op {
		next := w.stream(d, seed, 1, 2)
		ops := make([]op, 200)
		for i := range ops {
			ops[i] = next()
		}
		return ops
	}
	for _, w := range workloads {
		a, b, c := take(7, w), take(7, w), take(8, w)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: two streams of seed 7 differ", w.name)
		}
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: streams of seeds 7 and 8 are identical", w.name)
		}
	}
}

func TestMixedStreamInterleavesFreshInserts(t *testing.T) {
	d, err := generate(shortScale)
	if err != nil {
		t.Fatal(err)
	}
	w, _ := workloadByName("ratings.mixed")
	seen := map[int64]bool{}
	for lane := int64(0); lane < 2; lane++ {
		next := w.stream(d, 1, lane, 2)
		for i := 0; i < 100; i++ {
			o := next()
			if o.write() != (i%5 == 4) {
				t.Fatalf("lane %d op %d: write=%v", lane, i, o.write())
			}
			if o.write() {
				if o.item < insertBase || seen[o.item] {
					t.Fatalf("lane %d op %d: item %d is not fresh", lane, i, o.item)
				}
				seen[o.item] = true
			}
		}
	}
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for n := 0; n <= 2500; n++ {
		l := make(latencies, n)
		for i := range l {
			l[i] = int64(i + 1)
		}
		for _, q := range []float64{0.5, 0.95, 0.99, 0.999} {
			v, err := l.percentile(q)
			if err != nil {
				continue
			}
			if beyond := n - int(v); beyond < tailSupport {
				t.Fatalf("p%g of %d samples reported with %d samples beyond it", q*100, n, beyond)
			}
		}
		if q, v, err := l.tail(); err == nil {
			if beyond := n - int(v); beyond < tailSupport {
				t.Fatalf("tail p%g of %d samples reported with %d samples beyond it", q*100, n, beyond)
			}
		} else if n >= 2*tailSupport {
			t.Fatalf("%d samples support no tail: %v", n, err)
		}
	}
	if _, err := make(latencies, 199).percentile(0.95); err == nil {
		t.Error("p95 of 199 samples was reported")
	}
	if _, err := make(latencies, 200).percentile(0.95); err != nil {
		t.Errorf("p95 of 200 samples: %v", err)
	}
}

func TestSelfTimeIsSpanMinusChildren(t *testing.T) {
	spans := []span{
		{Name: "routed", Op: 0, Parent: -1, Start: 0, End: 100},
		{Name: "direct", Op: 0, Parent: 0, Start: 100, End: 160},
		{Name: "embedded", Op: 0, Parent: 1, Start: 160, End: 190},
		{Name: "sql.parse", Op: 0, Parent: 2, Start: 190, End: 195},
		{Name: "exec.collect", Op: 0, Parent: 2, Start: 195, End: 215},
		{Name: "wire.codec", Op: 0, Parent: 1, Start: 215, End: 225},
		{Name: "storage.cold", Op: 0, Parent: -1, Start: 225, End: 300},
		// A second op whose embedded rung came out slower than its parent:
		// the self time goes negative rather than being hidden.
		{Name: "routed", Op: 1, Parent: -1, Start: 300, End: 350},
		{Name: "direct", Op: 1, Parent: 7, Start: 350, End: 410},
	}
	want := map[string][]int64{
		"routed":       {40, -10},
		"direct":       {20, 60},
		"embedded":     {5},
		"sql.parse":    {5},
		"exec.collect": {20},
		"wire.codec":   {10},
		"storage.cold": {75},
	}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
	if got := medianUs([]int64{3000, 1000, 2000}); got != 2 {
		t.Errorf("medianUs = %v, want 2", got)
	}
}

func TestCompareVerdicts(t *testing.T) {
	var sp spec
	if err := readJSON(filepath.Join("testdata", "spec.json"), &sp); err != nil {
		t.Fatal(err)
	}
	load := func(name string) ledger {
		var l ledger
		if err := readJSON(filepath.Join("testdata", name), &l); err != nil {
			t.Fatal(err)
		}
		return l
	}
	base := load("ledger_base.json")
	for _, tc := range []struct {
		file    string
		verdict int
		flagged [2]string // workload and metric of the one row that must be marked
	}{
		{"ledger_base.json", 0, [2]string{}},
		{"ledger_within.json", 0, [2]string{}},
		{"ledger_slow_tail.json", 1, [2]string{"recommend.scan", "read_p95_ms"}},
		{"ledger_failing.json", 1, [2]string{"lookup.routed", "fail_ratio"}},
	} {
		var out bytes.Buffer
		if got := compare(sp, base, load(tc.file), &out); got != tc.verdict {
			t.Errorf("%s: verdict %d, want %d\n%s", tc.file, got, tc.verdict, out.String())
		}
		for _, line := range strings.Split(out.String(), "\n") {
			f := strings.Fields(line)
			flagged := len(f) > 1 && f[0] == tc.flagged[0] && f[1] == tc.flagged[1]
			if strings.Contains(line, "OUTSIDE") != flagged {
				t.Errorf("%s: unexpected row %q", tc.file, line)
			}
		}
	}
}

// TestShortSmoke runs the whole benchmark — real binaries, every workload,
// both passes — at the -short size and asserts that every metric named
// in BENCHMARK.json is printed with its unit for every workload.
func TestShortSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("launches real server processes")
	}
	var sp spec
	if err := readJSON(filepath.Join("..", "BENCHMARK.json"), &sp); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	var out bytes.Buffer
	ledgerFile := filepath.Join(dir, "ledger.json")
	if code := run([]string{"-short", "-seed", "1", "-out", ledgerFile, "-trace-out", filepath.Join(dir, "spans.json")}, &out, dir); code != 0 {
		t.Fatalf("exit code %d\n%s", code, out.String())
	}
	printed := map[string]bool{} // "workload metric unit"
	for _, line := range strings.Split(out.String(), "\n") {
		if strings.Contains(line, "WRONG") {
			t.Error(line)
		}
		if f := strings.Fields(line); len(f) == 4 {
			printed[f[0]+" "+f[1]+" "+f[3]] = true
		}
	}
	var led ledger
	if err := readJSON(ledgerFile, &led); err != nil {
		t.Fatal(err)
	}
	if len(sp.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json names %d workloads, the benchmark runs %d", len(sp.Workloads), len(workloads))
	}
	for _, w := range sp.Workloads {
		entry := led.Workloads[w.Name]
		if entry.EndToEnd == nil || entry.PerLayer == nil {
			t.Fatalf("%s: a pass is missing from the ledger", w.Name)
		}
		for _, pass := range []struct {
			res   *passResult
			names []specMetric
		}{{entry.EndToEnd, sp.EndToEnd}, {entry.PerLayer, sp.PerLayer}} {
			if !pass.res.Correct || pass.res.Failed != 0 || pass.res.Attempted < 1 {
				t.Errorf("%s: correct=%v attempted=%d failed=%d", w.Name, pass.res.Correct, pass.res.Attempted, pass.res.Failed)
			}
			if len(pass.res.Metrics) != len(pass.names) {
				t.Errorf("%s: pass reports %d metrics, BENCHMARK.json names %d", w.Name, len(pass.res.Metrics), len(pass.names))
			}
			for _, m := range pass.names {
				if got, ok := pass.res.Metrics[m.Name]; !ok || got.Unit != m.Unit {
					t.Errorf("%s: metric %s: got %+v, want unit %q", w.Name, m.Name, got, m.Unit)
				}
				if !printed[w.Name+" "+m.Name+" "+m.Unit] {
					t.Errorf("%s: no line for %s in %s", w.Name, m.Name, m.Unit)
				}
			}
		}
		for _, m := range sp.EndToEnd {
			if entry.EndToEnd.Metrics[m.Name].Value <= 0 {
				t.Errorf("%s: end-to-end metric %s is %v", w.Name, m.Name, entry.EndToEnd.Metrics[m.Name].Value)
			}
		}
	}
}
