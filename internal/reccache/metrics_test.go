package reccache

import (
	"errors"
	"testing"

	"recdb/internal/metrics"
	"recdb/internal/recindex"
)

// TestCacheMetricsDeterministic pins the cache manager's instrument
// semantics under an integer fake clock: histogram updates, maintenance
// runs, admission/eviction volumes, and health transitions each count
// exactly once per event.
func TestCacheMetricsDeterministic(t *testing.T) {
	ts := 10.0
	ix := recindex.New()
	m := New(ix, 0.5, func() float64 { return ts })
	reg := metrics.NewRegistry()
	m.Metrics = Metrics{
		Queries:           reg.Counter("reccache.queries"),
		Updates:           reg.Counter("reccache.updates"),
		Runs:              reg.Counter("reccache.runs"),
		RunFailures:       reg.Counter("reccache.run_failures"),
		Admitted:          reg.Counter("reccache.admitted"),
		Evicted:           reg.Counter("reccache.evicted"),
		HealthTransitions: reg.Counter("reccache.health_transitions"),
	}
	get := func(name string) int64 {
		s := reg.Snapshot()
		v, _ := s.Get(name)
		return v
	}

	// Table I's activity shape: Alice queries, items accrue updates.
	for q := 0; q < 100; q++ {
		m.RecordQuery(1)
	}
	ts = 12
	for q := 0; q < 10; q++ {
		m.RecordQuery(2)
	}
	for q := 0; q < 1000; q++ {
		m.RecordUpdate(1)
	}
	if got := get("reccache.queries"); got != 110 {
		t.Fatalf("queries = %d, want 110", got)
	}
	if got := get("reccache.updates"); got != 1000 {
		t.Fatalf("updates = %d, want 1000", got)
	}

	// One maintenance run: the admitted/evicted counters must match the
	// decision it returns.
	ix.Put(2, 2, 3.3)
	ts = 15
	dec, err := m.Run(fixed(&fakePredictor{users: []int64{1, 2}, items: []int64{1, 2, 3}}))
	if err != nil {
		t.Fatal(err)
	}
	if got := get("reccache.runs"); got != 1 {
		t.Fatalf("runs = %d, want 1", got)
	}
	if got := get("reccache.admitted"); got != int64(dec.Admitted) {
		t.Fatalf("admitted = %d, want %d", got, dec.Admitted)
	}
	if got := get("reccache.evicted"); got != int64(dec.Evicted) {
		t.Fatalf("evicted = %d, want %d", got, dec.Evicted)
	}

	// Health transitions: degrade once (1 flip), stay degraded (no flip),
	// recover (second flip) — exactly what the daemon loop feeds through
	// recordRun.
	boom := errors.New("injected run failure")
	m.recordRun(boom)
	if h := m.Health(); h.Healthy {
		t.Fatalf("health after failure = %+v", h)
	}
	if got := get("reccache.run_failures"); got != 1 {
		t.Fatalf("run_failures = %d, want 1", got)
	}
	if got := get("reccache.health_transitions"); got != 1 {
		t.Fatalf("health_transitions = %d, want 1", got)
	}
	m.recordRun(boom)
	if got := get("reccache.run_failures"); got != 2 {
		t.Fatalf("run_failures = %d, want 2", got)
	}
	if got := get("reccache.health_transitions"); got != 1 {
		t.Fatalf("health_transitions after repeat failure = %d, want 1", got)
	}
	m.recordRun(nil)
	if h := m.Health(); !h.Healthy {
		t.Fatalf("health after recovery = %+v", h)
	}
	if got := get("reccache.health_transitions"); got != 2 {
		t.Fatalf("health_transitions after recovery = %d, want 2", got)
	}
}
