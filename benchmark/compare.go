package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// spec is the part of BENCHMARK.json the benchmark itself reads: metric
// names, units, directions and regression bounds.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readJSON(path string, v any) error {
	blob, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(blob, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// worse is how much worse b is than a, as a share of a, in the metric's
// own direction (negative when b is better).
func (m specMetric) worse(a, b float64) float64 {
	if m.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// compareLedgers prints one row per (workload, end-to-end metric) of two
// ledger files — both values, the relative difference and the bound from
// BENCHMARK.json — and returns 1 when any pair is outside its bound, any
// failure share rose or a side was incorrect.
func compareLedgers(files []string, out io.Writer) int {
	if len(files) != 2 {
		fmt.Fprintln(os.Stderr, "benchmark: -compare takes two ledger files")
		return 2
	}
	var sp spec
	var a, b ledger
	for _, f := range []struct {
		path string
		into any
	}{{"BENCHMARK.json", &sp}, {files[0], &a}, {files[1], &b}} {
		if err := readJSON(f.path, f.into); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 2
		}
	}
	verdict := compare(sp, a, b, out)
	if verdict != 0 {
		fmt.Fprintln(out, "REGRESSION: at least one pair is outside its bound")
	}
	return verdict
}

func compare(sp spec, a, b ledger, out io.Writer) int {
	verdict := 0
	fmt.Fprintf(out, "%-16s %-12s %14s %14s %9s %7s\n", "workload", "metric", "a", "b", "worse by", "bound")
	for _, w := range sp.Workloads {
		ea, eb := a.Workloads[w.Name].EndToEnd, b.Workloads[w.Name].EndToEnd
		if ea == nil || eb == nil {
			fmt.Fprintf(out, "%-16s missing from a ledger\n", w.Name)
			verdict = 1
			continue
		}
		for _, m := range sp.EndToEnd {
			va, vb := ea.Metrics[m.Name].Value, eb.Metrics[m.Name].Value
			by := m.worse(va, vb)
			flag := ""
			if by > m.Bound {
				flag = "  OUTSIDE"
				verdict = 1
			}
			fmt.Fprintf(out, "%-16s %-12s %14.4f %14.4f %+8.1f%% %6.0f%%%s\n", w.Name, m.Name, va, vb, 100*by, 100*m.Bound, flag)
		}
		// The failure share has no tolerance: any rise is a regression,
		// and so is a wrong answer on the new side.
		fa, fb := float64(ea.Failed)/float64(ea.Attempted), float64(eb.Failed)/float64(eb.Attempted)
		flag := ""
		if fb > fa || !eb.Correct {
			flag = "  OUTSIDE"
			verdict = 1
		}
		fmt.Fprintf(out, "%-16s %-12s %14.6f %14.6f %9s %7s%s\n", w.Name, "fail_ratio", fa, fb, "", "0", flag)
	}
	return verdict
}
