// Command recdb-router fronts a fleet of recdb-server shards with one
// wire-protocol endpoint (DESIGN.md §14). User-keyed statements route
// to the shard owning the user on a consistent-hash ring; DDL and model
// builds replicate to every shard; cross-shard reads scatter-gather
// with an ordered merge. The router drains gracefully on SIGINT/
// SIGTERM: in-flight statements finish before exit.
//
// Usage:
//
//	recdb-router -addr 127.0.0.1:7430 -shards 127.0.0.1:7425,127.0.0.1:7427
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"recdb/cmd/internal/daemon"
	"recdb/internal/frontend"
	"recdb/internal/shard"
)

func main() {
	var (
		addr         = flag.String("addr", "127.0.0.1:7430", "TCP address to listen on (port 0 picks a free port)")
		shards       = flag.String("shards", "", "comma-separated backend recdb-server addresses, in ring order (required)")
		userCol      = flag.String("user-col", "uid", "user-key column statements are partitioned on")
		userTables   = flag.String("user-tables", "", "comma-separated tables known to carry the user column (CREATE TABLE through the router supersedes this)")
		poolSize     = flag.Int("pool-size", 0, "pipelined connections per shard (0 = default)")
		retries      = flag.Int("retries", 0, "retry attempts per shard before shard_down (0 = default)")
		metricsAddr  = flag.String("metrics-addr", "", "HTTP metrics address (/metrics, /metrics.json); empty = disabled")
		maxConns     = flag.Int("max-conns", 0, "client connection limit (0 = default)")
		queryTimeout = flag.Duration("query-timeout", 0, "per-statement bound, fan-out included (0 = none)")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "how long shutdown waits for in-flight statements")
	)
	flag.Parse()
	if err := run(*addr, *shards, *userCol, *userTables, *poolSize, *retries,
		*metricsAddr, *maxConns, *queryTimeout, *drainTimeout); err != nil {
		fmt.Fprintln(os.Stderr, "recdb-router:", err)
		os.Exit(1)
	}
}

func run(addr, shards, userCol, userTables string, poolSize, retries int,
	metricsAddr string, maxConns int, queryTimeout, drainTimeout time.Duration) error {
	backends := splitList(shards)
	if len(backends) == 0 {
		return fmt.Errorf("-shards is required (comma-separated host:port list)")
	}

	r, err := shard.New(shard.Options{
		Shards:     backends,
		UserCol:    userCol,
		UserTables: splitList(userTables),
		PoolSize:   poolSize,
		Retries:    retries,
		Options: frontend.Options{
			MaxConns:     maxConns,
			QueryTimeout: queryTimeout,
			Logf:         func(format string, args ...any) { fmt.Fprintf(os.Stderr, format+"\n", args...) },
		},
	})
	if err != nil {
		return err
	}

	if metricsAddr != "" {
		bound, stop, err := r.ServeMetrics(metricsAddr)
		if err != nil {
			return err
		}
		defer func() { _ = stop() }()
		fmt.Printf("metrics on http://%s/metrics\n", bound)
	}

	return daemon.Run(addr, r, drainTimeout,
		fmt.Sprintf("routing %d shards: %s", len(backends), strings.Join(backends, ", ")))
}

// splitList parses a comma-separated flag into its non-empty entries.
func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if p := strings.TrimSpace(part); p != "" {
			out = append(out, p)
		}
	}
	return out
}
