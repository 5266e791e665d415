// Command recdb-server serves a recdb database over TCP speaking the
// wire protocol (DESIGN.md §10). It opens (or creates) a durable home
// with -dir, optionally seeds it with a synthetic dataset (-load), and
// drains gracefully on SIGINT/SIGTERM: in-flight statements finish and
// a final checkpoint lands before exit.
//
// Usage:
//
//	recdb-server -dir /tmp/recdb -load -metrics-addr 127.0.0.1:7426
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"time"

	"recdb"
	"recdb/cmd/internal/daemon"
	"recdb/internal/dataset"
	"recdb/internal/persist"
	"recdb/internal/server"
)

func main() {
	var (
		addr         = flag.String("addr", "127.0.0.1:7425", "TCP address to listen on (port 0 picks a free port)")
		dir          = flag.String("dir", "", "durable home directory: recover it if it exists, create it otherwise (empty = in-memory)")
		load         = flag.Bool("load", false, "seed the database with the -dataset synthetic dataset before serving")
		datasetName  = flag.String("dataset", "movielens", "dataset -load seeds: movielens, ldos, or yelp")
		scale        = flag.Float64("scale", 1.0, "scale factor for -load (0.1 = a tenth of the users and items)")
		syncEvery    = flag.Int("sync-every", 1, "WAL group-commit factor: fsync after n commits (1 = every commit)")
		syncInterval = flag.Duration("sync-interval", 2*time.Millisecond, "WAL group-commit latency bound (with -sync-every > 1)")
		metricsAddr  = flag.String("metrics-addr", "", "HTTP metrics address (/metrics, /metrics.json); empty = disabled")
		maxConns     = flag.Int("max-conns", 0, "connection limit (0 = server default)")
		queryTimeout = flag.Duration("query-timeout", 0, "per-statement execution bound (0 = none)")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "how long shutdown waits for in-flight statements")
	)
	flag.Parse()
	if err := run(*addr, *dir, *load, *datasetName, *scale, *syncEvery, *syncInterval,
		*metricsAddr, *maxConns, *queryTimeout, *drainTimeout); err != nil {
		fmt.Fprintln(os.Stderr, "recdb-server:", err)
		os.Exit(1)
	}
}

func run(addr, dir string, load bool, datasetName string, scale float64,
	syncEvery int, syncInterval time.Duration, metricsAddr string,
	maxConns int, queryTimeout, drainTimeout time.Duration) error {
	db, err := openDB(dir, syncEvery, syncInterval)
	if err != nil {
		return err
	}
	defer db.Close()

	if load {
		if err := seed(db, datasetName, scale); err != nil {
			return fmt.Errorf("seeding: %w", err)
		}
	}

	if metricsAddr != "" {
		bound, stop, err := server.ServeMetrics(db, metricsAddr)
		if err != nil {
			return err
		}
		defer func() { _ = stop() }()
		fmt.Printf("metrics on http://%s/metrics\n", bound)
	}

	srv := server.New(db, server.Options{
		MaxConns:     maxConns,
		QueryTimeout: queryTimeout,
		Logf:         func(format string, args ...any) { fmt.Fprintf(os.Stderr, format+"\n", args...) },
	})

	return daemon.Run(addr, srv, drainTimeout)
}

func openDB(dir string, syncEvery int, syncInterval time.Duration) (*recdb.DB, error) {
	opts := []recdb.Option{
		recdb.WithWALSyncEvery(syncEvery),
		recdb.WithWALSyncInterval(syncInterval),
	}
	if dir == "" {
		return recdb.Open(opts...), nil
	}
	db, err := recdb.OpenDir(dir, opts...)
	if errors.Is(err, persist.ErrNoSnapshot) {
		// A fresh home: checkpoint an empty database there, which also
		// attaches the WAL so everything from here on is durable.
		db = recdb.Open(opts...)
		if err := db.SaveTo(dir); err != nil {
			db.Close()
			return nil, fmt.Errorf("creating %s: %w", dir, err)
		}
		return db, nil
	}
	if err != nil {
		return nil, fmt.Errorf("opening %s: %w", dir, err)
	}
	return db, nil
}

// seed imports a synthetic dataset through the engine (bypassing the
// WAL) and, on a durable home, checkpoints it so the import survives a
// crash or plain exit.
func seed(db *recdb.DB, name string, scale float64) error {
	var spec dataset.Spec
	switch name {
	case "movielens":
		spec = dataset.MovieLens
	case "ldos":
		spec = dataset.LDOS
	case "yelp":
		spec = dataset.Yelp
	default:
		return fmt.Errorf("unknown dataset %q (movielens, ldos, yelp)", name)
	}
	if scale != 1.0 {
		spec = spec.Scaled(scale)
	}
	d := dataset.Generate(spec)
	if err := dataset.Load(db.Engine(), d); err != nil {
		return err
	}
	fmt.Printf("loaded %s\n", d.Describe())
	if info := db.Durability(); info.Attached {
		if err := db.SaveTo(info.Dir); err != nil {
			return fmt.Errorf("checkpointing import: %w", err)
		}
	}
	return nil
}
