// Command recdb-bench regenerates every table and figure of the paper's
// evaluation (§VI) plus the ablation studies listed in DESIGN.md, printing
// each as a text (or Markdown) table.
//
//	recdb-bench                      # all experiments at defaults
//	recdb-bench -exp fig6,fig10      # a subset
//	recdb-bench -scale 0.25         # scaled-down datasets (quick run)
//	recdb-bench -md                  # Markdown output for EXPERIMENTS.md
//	recdb-bench -exp ann -json BENCH_ann.json
//
// Experiment ids: table2, fig6, fig7, fig8, fig9, fig10, fig11, fig12,
// ablations (or individual a1, a2, a3, a5), ann, all. Serving-path throughput and
// latency are measured by `go run ./benchmark`, not here.
//
// Exit codes: 0 when every selected experiment ran, 1 when one failed,
// 2 on a usage error (a bad flag value, or an -exp id that names no
// experiment).
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"text/tabwriter"
	"time"

	"recdb/internal/bench"
	"recdb/internal/dataset"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type experiment struct {
	id  string
	run func() (bench.Table, error)
}

// selectExperiments resolves the -exp list against the experiments on
// offer ("all" and "ablations" expand; blanks are skipped). An id that
// names no experiment is an error even beside valid ones: a typo must not
// quietly shrink a run.
func selectExperiments(exp string, experiments []experiment) (map[string]bool, error) {
	ids := make([]string, len(experiments))
	for i, e := range experiments {
		ids[i] = e.id
	}
	valid := "valid: " + strings.Join(ids, ", ") + ", ablations, all"
	wanted := map[string]bool{}
	for _, id := range strings.Split(exp, ",") {
		id = strings.TrimSpace(strings.ToLower(id))
		matched := id == ""
		for _, e := range experiments {
			ablation := len(e.id) == 2 && e.id[0] == 'a'
			if id == e.id || id == "all" || (id == "ablations" && ablation) {
				wanted[e.id] = true
				matched = true
			}
		}
		if !matched {
			return nil, fmt.Errorf("unknown experiment %q (%s)", id, valid)
		}
	}
	if len(wanted) == 0 {
		return nil, fmt.Errorf("no experiment given (%s)", valid)
	}
	return wanted, nil
}

// run is the command behind main; it returns the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("recdb-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	exp := fs.String("exp", "all", "comma-separated experiment ids")
	scale := fs.Float64("scale", 1.0, "dataset scale factor (1.0 = the paper's sizes)")
	reps := fs.Int("reps", 3, "repetitions per RecDB-side measurement")
	md := fs.Bool("md", false, "emit Markdown tables")
	annScaleList := fs.String("ann-scales", "0.25,1.0", "dataset scale factors for the ann experiment's size axis")
	jsonPath := fs.String("json", "", "also write the result tables as JSON to this file")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	annScales, err := parseScales(*annScaleList)
	if err != nil {
		fmt.Fprintf(stderr, "recdb-bench: -ann-scales: %v\n", err)
		return 2
	}
	bench.Reps = *reps
	spec := func(s dataset.Spec) dataset.Spec {
		if *scale != 1.0 {
			return s.Scaled(*scale)
		}
		return s
	}

	experiments := []experiment{
		{"table2", func() (bench.Table, error) { return bench.RunTable2(*scale) }},
		{"fig6", func() (bench.Table, error) {
			return bench.RunSelectivity("Fig. 6", spec(dataset.MovieLens))
		}},
		{"fig7", func() (bench.Table, error) {
			return bench.RunSelectivity("Fig. 7", spec(dataset.Yelp))
		}},
		{"fig8", func() (bench.Table, error) {
			return bench.RunJoin("Fig. 8", spec(dataset.MovieLens))
		}},
		{"fig9", func() (bench.Table, error) {
			return bench.RunJoin("Fig. 9", spec(dataset.LDOS))
		}},
		{"fig10", func() (bench.Table, error) {
			return bench.RunTopK("Fig. 10", spec(dataset.MovieLens))
		}},
		{"fig11", func() (bench.Table, error) {
			return bench.RunTopK("Fig. 11", spec(dataset.LDOS))
		}},
		{"fig12", func() (bench.Table, error) {
			return bench.RunTopK("Fig. 12", spec(dataset.Yelp))
		}},
		{"a1", func() (bench.Table, error) {
			return bench.RunAblationFilterPushdown(spec(dataset.MovieLens))
		}},
		{"a2", func() (bench.Table, error) {
			return bench.RunAblationJoinRecommend(spec(dataset.MovieLens))
		}},
		{"a3", func() (bench.Table, error) {
			return bench.RunAblationRecScoreIndex(spec(dataset.MovieLens))
		}},
		{"a5", func() (bench.Table, error) {
			return bench.RunAblationHotness(spec(dataset.MovieLens))
		}},
		{"ann", func() (bench.Table, error) {
			return bench.RunANN(dataset.MovieLens, annScales, 10)
		}},
	}

	wanted, err := selectExperiments(*exp, experiments)
	if err != nil {
		fmt.Fprintf(stderr, "recdb-bench: -exp: %v\n", err)
		return 2
	}

	var tables []bench.Table
	for _, e := range experiments {
		if !wanted[e.id] {
			continue
		}
		start := time.Now()
		tab, err := e.run()
		if err != nil {
			fmt.Fprintf(stderr, "recdb-bench: %s: %v\n", e.id, err)
			return 1
		}
		tables = append(tables, tab)
		render(stdout, tab, *md)
		fmt.Fprintf(stdout, "  (experiment wall time: %v)\n\n", time.Since(start).Round(time.Millisecond))
	}
	if *jsonPath != "" {
		if err := writeJSON(*jsonPath, tables); err != nil {
			fmt.Fprintf(stderr, "recdb-bench: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "wrote %s\n", *jsonPath)
	}
	return 0
}

func parseScales(s string) ([]float64, error) {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		f, err := strconv.ParseFloat(part, 64)
		if err != nil || f <= 0 {
			return nil, fmt.Errorf("scales must be positive numbers, got %q", part)
		}
		out = append(out, f)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no scales given")
	}
	return out, nil
}

func writeJSON(path string, tables []bench.Table) error {
	data, err := json.MarshalIndent(tables, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func render(out io.Writer, t bench.Table, md bool) {
	fmt.Fprintf(out, "== %s — %s ==\n", t.ID, t.Title)
	if md {
		fmt.Fprintf(out, "| %s |\n", strings.Join(t.Header, " | "))
		seps := make([]string, len(t.Header))
		for i := range seps {
			seps[i] = "---"
		}
		fmt.Fprintf(out, "|%s|\n", strings.Join(seps, "|"))
		for _, row := range t.Rows {
			fmt.Fprintf(out, "| %s |\n", strings.Join(row, " | "))
		}
		return
	}
	w := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, strings.Join(t.Header, "\t"))
	for _, row := range t.Rows {
		fmt.Fprintln(w, strings.Join(row, "\t"))
	}
	_ = w.Flush() // best-effort table output to stdout
}
