package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"recdb/client"
)

// shardCount is fixed: two shards is the smallest cluster in which the
// router has to choose an owner and split a multi-user INSERT.
const shardCount = 2

// binaries are the two served programs, built from this checkout.
type binaries struct {
	server, router string
}

// buildBinaries compiles recdb-server and recdb-router into dir and
// reports how long the build took (excluded from setup_s).
func buildBinaries(dir string) (binaries, time.Duration, error) {
	start := time.Now()
	cmd := exec.Command("go", "build", "-o", dir+string(filepath.Separator), "recdb/cmd/recdb-server", "recdb/cmd/recdb-router")
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return binaries{}, 0, fmt.Errorf("building the server and the router: %w", err)
	}
	b := binaries{
		server: filepath.Join(dir, "recdb-server"),
		router: filepath.Join(dir, "recdb-router"),
	}
	return b, time.Since(start), nil
}

// proc is one launched binary, the address it serves the wire protocol
// on, and the address of its metrics endpoint.
type proc struct {
	cmd     *exec.Cmd
	addr    string
	metrics string
	exited  chan struct{} // closed once cmd.Wait returned
}

// launch starts bin with args plus an ephemeral metrics endpoint, waits
// for its "metrics on" and "listening on" lines, and keeps draining its
// stdout so the child never blocks on a full pipe.
func launch(bin string, args ...string) (*proc, error) {
	cmd := exec.Command(bin, append(args, "-addr", "127.0.0.1:0", "-metrics-addr", "127.0.0.1:0")...)
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	p := &proc{cmd: cmd, exited: make(chan struct{})}
	sc := bufio.NewScanner(out)
	for p.addr == "" && sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "metrics on http://"); ok {
			p.metrics = strings.TrimSuffix(strings.TrimSpace(rest), "/metrics")
		} else if rest, ok := strings.CutPrefix(line, "listening on "); ok {
			p.addr = strings.TrimSpace(rest)
		}
	}
	go func() {
		_, _ = io.Copy(io.Discard, out)
		_ = cmd.Wait()
		close(p.exited)
	}()
	if p.addr == "" || p.metrics == "" {
		p.kill()
		return nil, fmt.Errorf("%s: exited before reporting its addresses", filepath.Base(bin))
	}
	return p, nil
}

// stop drains the process with SIGTERM, escalating to SIGKILL after a
// grace period, and returns once it has exited.
func (p *proc) stop() {
	_ = p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.exited:
	case <-time.After(15 * time.Second):
		p.kill()
	}
}

// kill ends the process with SIGKILL — no drain, no final checkpoint —
// and returns once it has exited.
func (p *proc) kill() {
	_ = p.cmd.Process.Kill()
	<-p.exited
}

// scrape reads the process's /metrics.json: counters and gauges as
// numbers, histograms as their recorded sum.
func (p *proc) scrape() (map[string]float64, error) {
	resp, err := http.Get("http://" + p.metrics + "/metrics.json")
	if err != nil {
		return nil, fmt.Errorf("scrape %s: %w", p.metrics, err)
	}
	defer resp.Body.Close()
	var raw map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&raw); err != nil {
		return nil, fmt.Errorf("scrape %s: %w", p.metrics, err)
	}
	out := make(map[string]float64, len(raw))
	for name, v := range raw {
		switch x := v.(type) {
		case float64:
			out[name] = x
		case map[string]any:
			if sum, ok := x["sum"].(float64); ok {
				out[name] = sum
			}
		}
	}
	return out, nil
}

// cluster is shardCount durable shard processes fronted by a router.
type cluster struct {
	bins   binaries
	dir    string
	shards []*proc
	router *proc
}

func (c *cluster) shardDir(i int) string {
	return filepath.Join(c.dir, fmt.Sprintf("shard%d", i))
}

// startShard launches shard i on its durable home. -sync-every 1 is the
// server's default and is spelled out because every write metric depends
// on it.
func (c *cluster) startShard(i int) (*proc, error) {
	p, err := launch(c.bins.server, "-dir", c.shardDir(i), "-sync-every", "1")
	if err != nil {
		return nil, fmt.Errorf("shard %d: %w", i, err)
	}
	return p, nil
}

// startCluster launches the shards and a router over them in dir.
func startCluster(bins binaries, dir string) (*cluster, error) {
	c := &cluster{bins: bins, dir: dir}
	addrs := make([]string, 0, shardCount)
	for i := 0; i < shardCount; i++ {
		p, err := c.startShard(i)
		if err != nil {
			c.stop()
			return nil, err
		}
		c.shards = append(c.shards, p)
		addrs = append(addrs, p.addr)
	}
	p, err := launch(c.bins.router, "-shards", strings.Join(addrs, ","))
	if err != nil {
		c.stop()
		return nil, fmt.Errorf("router: %w", err)
	}
	c.router = p
	return c, nil
}

// stop ends every process of the cluster and waits for each.
func (c *cluster) stop() {
	if c.router != nil {
		c.router.stop()
	}
	for _, s := range c.shards {
		s.stop()
	}
}

// kill ends every process of the cluster at once, so that every pending
// op fails; the watchdog's way out of a hung pass.
func (c *cluster) kill() {
	c.router.kill()
	for _, s := range c.shards {
		s.kill()
	}
}

// scrapeAll sums the counters of the router and every shard into one
// map; the namespaces are disjoint (shard.* on the router, the rest on
// the shards), so a sum is the cluster-wide count.
func (c *cluster) scrapeAll() (map[string]float64, error) {
	total := map[string]float64{}
	for _, p := range append([]*proc{c.router}, c.shards...) {
		m, err := p.scrape()
		if err != nil {
			return nil, err
		}
		for k, v := range m {
			total[k] += v
		}
	}
	return total, nil
}

// runScript feeds a seeding script to exec, statement by statement.
func runScript(script []string, exec func(sql string) error) error {
	for _, stmt := range script {
		if err := exec(stmt); err != nil {
			return fmt.Errorf("seeding (%.40s...): %w", stmt, err)
		}
	}
	return nil
}

// setUp launches a cluster in dir and seeds it through the router. The
// returned duration runs from the first process launch to the last model
// build's acknowledgement: the cluster is ready to serve every workload.
func setUp(ctx context.Context, bins binaries, dir string, d *data) (*cluster, time.Duration, error) {
	start := time.Now()
	c, err := startCluster(bins, dir)
	if err != nil {
		return nil, 0, err
	}
	conn, err := client.DialContext(ctx, c.router.addr)
	if err != nil {
		c.stop()
		return nil, 0, err
	}
	defer func() { _ = conn.Close() }()
	err = runScript(d.script(nil, true), func(sql string) error {
		_, err := conn.Exec(ctx, sql)
		return err
	})
	if err != nil {
		c.stop()
		return nil, 0, err
	}
	return c, time.Since(start), nil
}
