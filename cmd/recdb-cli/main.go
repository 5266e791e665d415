// Command recdb-cli is an interactive SQL shell for RecDB-Go. It supports
// the full dialect including CREATE/DROP RECOMMENDER and the RECOMMEND
// clause, plus a few backslash meta-commands:
//
//	\d                     list tables
//	\rec                   list recommenders
//	\materialize NAME      pre-compute the RecScoreIndex for a recommender
//	\maintain NAME         run one cache-maintenance pass (Algorithm 4)
//	\save DIR              snapshot the database to DIR and keep it durable
//	                       there (later commits go through DIR's write-ahead
//	                       log; -open replays them)
//	\health                recommender rebuild health (failures, backoff)
//	\evaluate NAME [K]     hold out every K-th rating (default 10), retrain
//	                       with the served model's build options, and report
//	                       RMSE/MAE
//	\stats                 show page-I/O counters
//	\metrics               show the full engine metrics snapshot
//	\timing                toggle per-statement timing
//	\q                     quit
//
// EXPLAIN ANALYZE SELECT ... runs the query and annotates the plan with
// actual per-operator rows, loops, wall time, and buffer-pool hits/misses.
//
// Flags can preload a synthetic dataset:
//
//	recdb-cli -dataset movielens -scale 0.25
//
// With -connect the shell speaks to a running recdb-server over the wire
// protocol instead of embedding a database; SQL behaves identically, and
// the meta-commands that need in-process access (\d, \rec, ...) report
// themselves unavailable:
//
//	recdb-cli -connect 127.0.0.1:7425
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"text/tabwriter"
	"time"

	"recdb"
	"recdb/client"
	"recdb/internal/dataset"
	"recdb/internal/engine"
)

func main() {
	datasetName := flag.String("dataset", "", "preload a synthetic dataset: movielens, ldos, or yelp")
	scale := flag.Float64("scale", 1.0, "dataset scale factor")
	script := flag.String("f", "", "run a SQL script file and exit")
	open := flag.String("open", "", "open a database snapshot directory (see \\save)")
	loadCSV := flag.String("load", "", "import a CSV dataset directory (as written by recdb-datagen)")
	connect := flag.String("connect", "", "connect to a recdb-server at host:port instead of embedding")
	flag.Parse()

	if *connect != "" {
		if *datasetName != "" || *open != "" || *loadCSV != "" {
			fatal(fmt.Errorf("-dataset, -open, and -load need an embedded database; they cannot be combined with -connect"))
		}
		c, err := client.Dial(*connect)
		if err != nil {
			fatal(err)
		}
		r := &remoteRunner{c: c}
		defer func() { _ = c.Close() }()
		if *script != "" {
			content, err := os.ReadFile(*script)
			if err != nil {
				fatal(err)
			}
			if err := runScript(r, string(content)); err != nil {
				fatal(err)
			}
			return
		}
		fmt.Printf("connected to %s at %s (session %d) — end statements with ';', \\q to quit\n",
			c.Server(), *connect, c.SessionID())
		repl(r)
		return
	}

	var db *recdb.DB
	if *open != "" {
		opened, err := recdb.OpenDir(*open)
		if err != nil {
			fatal(err)
		}
		db = opened
		d := db.Durability()
		fmt.Printf("opened %s (generation %d, WAL seq %d", *open, d.Generation, d.WALSeq)
		if d.SkippedGenerations > 0 {
			fmt.Printf(", %d corrupt generation(s) skipped", d.SkippedGenerations)
		}
		fmt.Println(")")
	} else {
		db = recdb.Open()
	}
	defer db.Close()

	if err := preload(db, *datasetName, *scale, *loadCSV); err != nil {
		fatal(err)
	}

	// Close the session before db.Close: a transaction left open at exit
	// holds the database's shared lock, and Close takes it exclusively.
	r := newLocalRunner(db)
	defer r.close()

	if *script != "" {
		content, err := os.ReadFile(*script)
		if err != nil {
			fatal(err)
		}
		if err := runScript(r, string(content)); err != nil {
			fatal(err)
		}
		return
	}

	fmt.Println("RecDB-Go shell — end statements with ';', \\q to quit, \\d to list tables")
	repl(r)
}

// runner is the statement/meta execution backend behind the REPL and -f
// scripts: embedded (localRunner) or a recdb-server session
// (remoteRunner). Both share the same line-assembly code path.
type runner interface {
	// statement executes one SQL statement or script chunk and prints
	// its result.
	statement(input string) error
	// meta handles a backslash command; it returns true to quit.
	meta(cmd string) bool
}

// localRunner executes against the embedded database through one
// long-lived Session, so an interactive BEGIN stays open across input
// lines until COMMIT or ROLLBACK.
type localRunner struct {
	db   *recdb.DB
	sess *recdb.Session
}

func newLocalRunner(db *recdb.DB) *localRunner {
	return &localRunner{db: db, sess: db.NewSession()}
}

func (l *localRunner) statement(input string) error { return runStatement(l.db, l.sess, input) }
func (l *localRunner) meta(cmd string) bool         { return meta(l.db, cmd) }

// close ends the session, rolling back a transaction the script or
// REPL left open — with a notice, since the user may not have meant to
// abandon it.
func (l *localRunner) close() {
	if l.sess.InTransaction() {
		fmt.Println("rolled back transaction left open at exit")
	}
	_ = l.sess.Close()
}

// remoteRunner executes against a recdb-server session.
type remoteRunner struct{ c *client.Conn }

func (r *remoteRunner) statement(input string) error {
	trimmed := strings.TrimSpace(input)
	if trimmed == "" {
		return nil
	}
	ctx := context.Background()
	if isQuery(trimmed) {
		rows, err := r.c.Query(ctx, strings.TrimSuffix(trimmed, ";"))
		if err != nil {
			return err
		}
		printRemoteRows(rows)
		return nil
	}
	res, err := r.c.Exec(ctx, input)
	if err != nil {
		return err
	}
	fmt.Printf("OK (%d rows affected)\n", res.RowsAffected)
	return nil
}

func (r *remoteRunner) meta(cmd string) bool {
	fields := strings.Fields(cmd)
	switch fields[0] {
	case "\\q", "\\quit":
		return true
	case "\\timing":
		timing = !timing
		fmt.Printf("timing is %v\n", timing)
	case "\\ping":
		start := time.Now()
		if err := r.c.Ping(context.Background()); err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
		} else {
			fmt.Printf("pong in %v\n", time.Since(start).Round(time.Microsecond))
		}
	default:
		fmt.Fprintf(os.Stderr, "%s needs in-process access and is unavailable over -connect (\\q, \\timing, \\ping work remotely)\n", fields[0])
	}
	return false
}

func printRemoteRows(rows *client.Rows) {
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, strings.Join(rows.Columns(), "\t"))
	for rows.Next() {
		row := rows.Row()
		cells := make([]string, len(row))
		for i, v := range row {
			cells[i] = v.String()
		}
		fmt.Fprintln(w, strings.Join(cells, "\t"))
	}
	_ = w.Flush() // best-effort table output to stdout
	plan := ""
	if rows.Strategy() != "" {
		plan = fmt.Sprintf(" [plan: %s]", rows.Strategy())
	}
	fmt.Printf("(%d rows)%s\n", rows.Len(), plan)
}

// preload imports the -dataset and/or -load data. Both importers write
// through the engine directly, bypassing the write-ahead log, so on a
// durably opened database (-open) a successful import is checkpointed
// into a fresh snapshot generation — otherwise a crash or plain exit
// would silently lose everything just imported.
func preload(db *recdb.DB, datasetName string, scale float64, loadCSV string) error {
	eng := db.Engine()
	imported := false

	if datasetName != "" {
		spec, err := specFor(datasetName)
		if err != nil {
			return err
		}
		if scale != 1.0 {
			spec = spec.Scaled(scale)
		}
		d := dataset.Generate(spec)
		if err := dataset.Load(eng, d); err != nil {
			return err
		}
		fmt.Printf("loaded %s into tables users, items, ratings%s\n",
			d.Describe(), geoNote(spec.Geo))
		imported = true
	}

	if loadCSV != "" {
		d, err := dataset.LoadCSVDir(eng, loadCSV)
		if err != nil {
			return err
		}
		fmt.Printf("imported %s from %s\n", d.Describe(), loadCSV)
		imported = true
	}

	if d := db.Durability(); imported && d.Attached {
		if err := db.SaveTo(d.Dir); err != nil {
			return fmt.Errorf("checkpointing imported data: %w", err)
		}
		fmt.Printf("checkpointed import into %s (generation %d)\n",
			d.Dir, db.Durability().Generation)
	}
	return nil
}

// runScript runs a -f script: lines starting with \ are meta-commands,
// everything else accumulates into SQL statements, exactly as in the REPL.
func runScript(r runner, content string) error {
	var buf strings.Builder
	for _, line := range strings.Split(content, "\n") {
		trimmed := strings.TrimSpace(line)
		if buf.Len() == 0 && strings.HasPrefix(trimmed, "\\") {
			if r.meta(trimmed) {
				return nil
			}
			continue
		}
		buf.WriteString(line)
		buf.WriteByte('\n')
		if strings.Contains(line, ";") {
			stmt := buf.String()
			buf.Reset()
			if err := r.statement(stmt); err != nil {
				return err
			}
		}
	}
	if strings.TrimSpace(buf.String()) != "" {
		return r.statement(buf.String())
	}
	return nil
}

func geoNote(geo bool) string {
	if geo {
		return " (and cities)"
	}
	return ""
}

func specFor(name string) (dataset.Spec, error) {
	switch strings.ToLower(name) {
	case "movielens":
		return dataset.MovieLens, nil
	case "ldos", "ldos-comoda":
		return dataset.LDOS, nil
	case "yelp":
		return dataset.Yelp, nil
	default:
		return dataset.Spec{}, fmt.Errorf("unknown dataset %q (movielens, ldos, yelp)", name)
	}
}

// timing is toggled by the \timing meta-command.
var timing bool

func repl(r runner) {
	scanner := bufio.NewScanner(os.Stdin)
	scanner.Buffer(make([]byte, 1<<20), 1<<20)
	var buf strings.Builder
	prompt := "recdb> "
	for {
		fmt.Print(prompt)
		if !scanner.Scan() {
			fmt.Println()
			return
		}
		line := scanner.Text()
		trimmed := strings.TrimSpace(line)
		if buf.Len() == 0 && strings.HasPrefix(trimmed, "\\") {
			if r.meta(trimmed) {
				return
			}
			continue
		}
		buf.WriteString(line)
		buf.WriteByte('\n')
		if strings.Contains(line, ";") {
			stmt := buf.String()
			buf.Reset()
			prompt = "recdb> "
			start := time.Now()
			if err := r.statement(stmt); err != nil {
				fmt.Fprintln(os.Stderr, "error:", err)
			}
			if timing {
				fmt.Printf("Time: %v\n", time.Since(start).Round(time.Microsecond))
			}
		} else {
			prompt = "   ... "
		}
	}
}

// meta handles backslash commands; it returns true to quit.
func meta(db *recdb.DB, cmd string) bool {
	eng := db.Engine()
	fields := strings.Fields(cmd)
	switch fields[0] {
	case "\\q", "\\quit":
		return true
	case "\\d":
		for _, t := range db.Tables() {
			fmt.Printf("%s (%d rows, %d pages)\n", t.Name, t.Rows, t.Pages)
		}
	case "\\rec":
		for _, r := range eng.Recommenders().List() {
			fmt.Printf("%s ON %s USING %s (built in %v, %d rebuilds)\n",
				r.Name, r.Table, r.Algo, r.BuildTime().Round(1000), r.Rebuilds())
		}
	case "\\materialize":
		if len(fields) != 2 {
			fmt.Fprintln(os.Stderr, "usage: \\materialize RECOMMENDER")
			break
		}
		if err := db.Materialize(fields[1]); err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
		} else {
			fmt.Println("materialized")
		}
	case "\\maintain":
		if len(fields) != 2 {
			fmt.Fprintln(os.Stderr, "usage: \\maintain RECOMMENDER")
			break
		}
		dec, err := db.RunCacheMaintenance(fields[1])
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
		} else {
			fmt.Printf("admitted %d users, evicted %d\n", dec.Admitted, dec.Evicted)
		}
	case "\\save":
		if len(fields) != 2 {
			fmt.Fprintln(os.Stderr, "usage: \\save DIR")
			break
		}
		if err := db.SaveTo(fields[1]); err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
		} else {
			d := db.Durability()
			fmt.Printf("saved to %s (generation %d); commits now go through its write-ahead log\n",
				fields[1], d.Generation)
		}
	case "\\health":
		hs := db.Health()
		if len(hs) == 0 {
			fmt.Println("no recommenders")
			break
		}
		for _, h := range hs {
			status := "healthy"
			if !h.Healthy {
				status = fmt.Sprintf("DEGRADED: %s (retry after %s)",
					h.LastError, h.NextRetry.Format(time.TimeOnly))
			}
			fmt.Printf("%s: %d rebuilds, %d pending, %d failed — %s\n",
				h.Name, h.Rebuilds, h.Pending, h.Failures, status)
		}
	case "\\evaluate":
		if len(fields) < 2 || len(fields) > 3 {
			fmt.Fprintln(os.Stderr, "usage: \\evaluate RECOMMENDER [K]")
			break
		}
		k := 10
		if len(fields) == 3 {
			v, err := strconv.Atoi(fields[2])
			if err != nil || v < 2 {
				fmt.Fprintln(os.Stderr, "K must be an integer >= 2")
				break
			}
			k = v
		}
		if err := evaluate(eng, fields[1], k); err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
		}
	case "\\timing":
		timing = !timing
		fmt.Printf("timing is %v\n", timing)
	case "\\stats":
		r, m, w := eng.Stats().Snapshot()
		fmt.Printf("page reads: %d  buffer misses: %d  page writes: %d\n", r, m, w)
	case "\\metrics":
		fmt.Print(db.Metrics().String())
	default:
		fmt.Fprintf(os.Stderr, "unknown command %s\n", fields[0])
	}
	return false
}

// evaluate retrains the named recommender's algorithm on a train split,
// with the options its served model is built with, and reports held-out
// accuracy.
func evaluate(eng *engine.Engine, name string, k int) error {
	r, ok := eng.Recommenders().Get(name)
	if !ok {
		return fmt.Errorf("no recommender %q", name)
	}
	ev, err := eng.Recommenders().Evaluate(r, k)
	if err != nil {
		return err
	}
	fmt.Printf("%s (%v): RMSE %.4f  MAE %.4f  (%d scorable, %d unscorable of %d held out)\n",
		r.Name, r.Algo, ev.RMSE, ev.MAE, ev.Scorable, ev.Unscorable, ev.Scorable+ev.Unscorable)
	return nil
}

func runStatement(db *recdb.DB, sess *recdb.Session, input string) error {
	trimmed := strings.TrimSpace(input)
	if trimmed == "" {
		return nil
	}
	if isQuery(trimmed) {
		// A single SELECT or EXPLAIN prints its rows.
		stmtText := strings.TrimSuffix(trimmed, ";")
		res, err := db.Engine().Query(stmtText)
		if err != nil {
			return err
		}
		printResult(res)
		return nil
	}
	r, err := sess.Exec(input)
	if err != nil {
		return err
	}
	fmt.Printf("OK (%d rows affected)\n", r.RowsAffected)
	return nil
}

func isQuery(s string) bool {
	if strings.Count(s, ";") > 1 {
		return false // multi-statement scripts go through ExecScript
	}
	return (len(s) >= 6 && strings.EqualFold(s[:6], "SELECT")) ||
		(len(s) >= 7 && strings.EqualFold(s[:7], "EXPLAIN"))
}

func printResult(res *engine.QueryResult) {
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	var header []string
	for _, c := range res.Schema.Columns {
		header = append(header, c.QualifiedName())
	}
	fmt.Fprintln(w, strings.Join(header, "\t"))
	for _, row := range res.Rows {
		cells := make([]string, len(row))
		for i, v := range row {
			cells[i] = v.String()
		}
		fmt.Fprintln(w, strings.Join(cells, "\t"))
	}
	_ = w.Flush() // best-effort table output to stdout
	plan := ""
	if res.Explain != nil && res.Explain.Strategy != "" {
		plan = fmt.Sprintf(" [plan: %s]", res.Explain.Strategy)
	}
	fmt.Printf("(%d rows)%s\n", len(res.Rows), plan)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "recdb-cli:", err)
	os.Exit(1)
}
