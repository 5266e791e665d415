package frontend

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"

	"recdb/internal/metrics"
)

// MetricsHandler serves a metrics registry over HTTP, one fresh
// snapshot per request, and the process's runtime profiles beside it:
//
//	/metrics       the registry as sorted "name value" text lines
//	/metrics.json  expvar-style JSON: counters and gauges as numbers,
//	/debug/vars    histograms as {count, sum, mean, p50, p99} objects
//	/debug/pprof/  net/http/pprof: profile, trace, heap, goroutine, ...
//
// The instruments themselves are lock-free, so scraping never stalls
// query traffic.
func MetricsHandler(snapshot func() metrics.Snapshot) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, snapshot().String())
	})
	serveJSON := func(w http.ResponseWriter, r *http.Request) {
		snap := snapshot()
		vars := make(map[string]any, len(snap.Counters)+len(snap.Gauges)+len(snap.Histograms))
		for _, c := range snap.Counters {
			vars[c.Name] = c.Value
		}
		for _, g := range snap.Gauges {
			vars[g.Name] = g.Value
		}
		for _, h := range snap.Histograms {
			vars[h.Name] = map[string]any{
				"count": h.Count, "sum": h.Sum, "mean": h.Mean(),
				"p50": h.Quantile(0.50), "p99": h.Quantile(0.99),
			}
		}
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(vars)
	}
	mux.HandleFunc("/metrics.json", serveJSON)
	mux.HandleFunc("/debug/vars", serveJSON)
	// Index serves every named runtime profile under the prefix; the four
	// below it are the endpoints that are not one.
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// ServeMetrics starts the metrics HTTP listener on addr and returns the
// bound address and a stop function. It serves in the background until
// stopped; serve errors after stop are ignored.
func ServeMetrics(snapshot func() metrics.Snapshot, addr string) (string, func() error, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, fmt.Errorf("metrics listen %s: %w", addr, err)
	}
	srv := &http.Server{Handler: MetricsHandler(snapshot)}
	go func() { _ = srv.Serve(ln) }()
	return ln.Addr().String(), srv.Close, nil
}
