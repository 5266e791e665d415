// Command benchmark is the repo's one bench ledger: it builds
// recdb-server and recdb-router, launches a real router over two durable
// shard processes on loopback, seeds them through the router, runs the
// named workloads end to end with tracing off and — in a separate pass —
// times each layer from outside, checks every answer, and prints each
// metric as "workload metric value unit". See README.md beside this file.
//
//	go run ./benchmark -seed 1 -out ledger.json     # every workload, both passes
//	go run ./benchmark -workload lookup.routed -seed 1 -seconds 12 -trace 0
//	go run ./benchmark -compare a.json b.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

const (
	// fullScale is the frozen data-set scale: MovieLens x0.2 is 188 users
	// x 336 items x 4000 ratings, at which recommend.scan completes about
	// 75 ops/s, well over 600 in a run (see README.md).
	fullScale = 0.2
	// shortScale and shortSeconds size the -short smoke run.
	shortScale   = 0.1
	shortSeconds = 2
	// runSeconds is BENCHMARK.json's run_seconds, the default window.
	runSeconds = 15
	// setUps is how many times an untraced pass sets the cluster up; it
	// reports the median and serves the workload from the last one.
	setUps = 5
	// maxClients caps the closed loop: more connections than cores
	// measures the scheduler, not the database.
	maxClients = 4
	// passLimit bounds one pass; past it the cluster is killed so that
	// every pending op fails and the pass ends.
	passLimit = 170 * time.Second
	// workRoot is where binaries and shard homes live, relative to the
	// directory the benchmark is run from.
	workRoot = ".bench_build"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// passResult is the contract's result object for one pass.
type passResult struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// options are the command's flags.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    string
	out      string
	traceOut string
	short    bool
}

// config is what a pass needs beyond its workload.
type config struct {
	seed    int64
	window  time.Duration
	warm    time.Duration
	clients int
	bins    binaries
	dir     string // scratch directory of this invocation
	out     io.Writer
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, workRoot))
}

// run is main with its surroundings passed in: the arguments, where to
// print, and the directory that holds binaries and shard homes.
func run(args []string, stdout io.Writer, root string) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	var o options
	fs.StringVar(&o.workload, "workload", "", "run only this workload (default: all, in ledger order)")
	fs.Int64Var(&o.seed, "seed", 1, "seed of every op stream")
	fs.IntVar(&o.seconds, "seconds", runSeconds, "length of one measured window")
	fs.StringVar(&o.trace, "trace", "", "0: end-to-end pass, 1: traced per-layer pass (default: both)")
	fs.StringVar(&o.out, "out", "", "write the ledger (environment and every metric) to this JSON file")
	fs.StringVar(&o.traceOut, "trace-out", "", "write the traced passes' spans to this JSON file")
	compare := fs.Bool("compare", false, "compare the two ledger files given as arguments against BENCHMARK.json's bounds")
	fs.BoolVar(&o.short, "short", false, "smoke run: same code path and real binaries, tiny data set, 2 s windows")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		return compareLedgers(fs.Args(), stdout)
	}
	// An interrupt cancels the pass in flight, whose watchdog then kills
	// the cluster: no server process outlives the benchmark.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := benchmark(ctx, o, stdout, root); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	return 0
}

// ledger is the -out file: the environment stamp and every pass result.
type ledger struct {
	Env       map[string]any         `json:"env"`
	Workloads map[string]ledgerEntry `json:"workloads"`
}

type ledgerEntry struct {
	EndToEnd *passResult `json:"end_to_end,omitempty"`
	PerLayer *passResult `json:"per_layer,omitempty"`
}

func benchmark(ctx context.Context, o options, stdout io.Writer, root string) error {
	selected := workloads
	if o.workload != "" {
		w, ok := workloadByName(o.workload)
		if !ok {
			return fmt.Errorf("unknown workload %q", o.workload)
		}
		selected = []workload{w}
	}
	var traced []bool
	switch o.trace {
	case "":
		traced = []bool{false, true}
	case "0":
		traced = []bool{false}
	case "1":
		traced = []bool{true}
	default:
		return fmt.Errorf("-trace is 0 or 1, not %q", o.trace)
	}
	scale := fullScale
	if o.short {
		scale, o.seconds = shortScale, shortSeconds
	}
	if o.seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	cfg := config{seed: o.seed, window: time.Duration(o.seconds) * time.Second,
		clients: min(runtime.NumCPU(), maxClients), out: stdout}
	// A fifth of the window, untimed, lets pools, caches and the
	// scheduler settle before the clock starts.
	cfg.warm = cfg.window / 5

	if err := os.MkdirAll(root, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(root, "run-")
	if err != nil {
		return err
	}
	defer func() { _ = os.RemoveAll(dir) }()
	cfg.dir = dir
	var buildTook time.Duration
	if cfg.bins, buildTook, err = buildBinaries(dir); err != nil {
		return err
	}
	d, err := generate(scale)
	if err != nil {
		return err
	}
	led := ledger{Env: environment(cfg, d, buildTook), Workloads: map[string]ledgerEntry{}}
	stamp, err := json.Marshal(led.Env)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "env %s\n", stamp)

	spans := []span{}
	for _, w := range selected {
		entry := ledgerEntry{}
		for _, tr := range traced {
			passCtx, cancel := context.WithTimeout(ctx, passLimit)
			var res *passResult
			if tr {
				var s []span
				res, s, err = tracedPass(passCtx, cfg, w, d)
				spans = append(spans, s...)
				entry.PerLayer = res
			} else {
				res, err = untracedPass(passCtx, cfg, w, d)
				entry.EndToEnd = res
			}
			cancel()
			if err != nil {
				return fmt.Errorf("%s: %w", w.name, err)
			}
			line, err := json.Marshal(res)
			if err != nil {
				return err
			}
			fmt.Fprintf(stdout, "%s\n", line)
		}
		led.Workloads[w.name] = entry
	}
	if o.traceOut != "" {
		if err := writeJSON(o.traceOut, map[string]any{"env": led.Env, "spans": spans}); err != nil {
			return err
		}
	}
	if o.out != "" {
		return writeJSON(o.out, led)
	}
	return nil
}

func writeJSON(path string, v any) error {
	blob, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(blob, '\n'), 0o644)
}

// environment is the stamp every output carries.
func environment(cfg config, d *data, buildTook time.Duration) map[string]any {
	commit := "unknown"
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return map[string]any{
		"nproc":          runtime.NumCPU(),
		"gomaxprocs":     runtime.GOMAXPROCS(0),
		"go":             runtime.Version(),
		"commit":         commit,
		"seed":           cfg.seed,
		"dataset":        fmt.Sprintf("%s, generator seed %d: %d users (%d with ratings), %d items, %d ratings", d.spec.Name, d.spec.Seed, d.spec.Users, len(d.users), d.spec.Items, len(d.ratings)),
		"shards":         shardCount,
		"clients":        cfg.clients,
		"load":           "closed loop, one connection and one request in flight per client",
		"warmup_s":       cfg.warm.Seconds(),
		"window_s":       cfg.window.Seconds(),
		"setups_per_run": setUps,
		"sync_policy":    "-sync-every 1 (fsync on every commit)",
		"go_build_s":     buildTook.Seconds(),
		"note":           "fsync and loopback timings are this sandbox's, not a device's or a network's; a SIGKILL leaves the OS page cache intact, so the restart check exercises WAL replay, not the device",
	}
}

// report prints one "workload metric value unit" line.
func report(w io.Writer, workload, name string, m metric) {
	fmt.Fprintf(w, "%-16s %-30s %14.4f %s\n", workload, name, m.Value, m.Unit)
}

// clusterDir names a fresh home for one cluster of this invocation.
func (cfg config) clusterDir(label string) string {
	return filepath.Join(cfg.dir, label)
}
