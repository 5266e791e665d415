package reccache

import (
	"testing"

	"recdb/internal/metrics"
)

// TestCacheMetricsDeterministic pins the cache manager's instrument
// semantics under an integer fake clock: histogram updates, maintenance
// runs and the users admitted and evicted each count exactly once per
// event.
func TestCacheMetricsDeterministic(t *testing.T) {
	ts := 10.0
	reg := metrics.NewRegistry()
	pred := &fakePredictor{users: []int64{1, 2}, items: []int64{1, 2, 3}}
	m := New(func() Predictor { return pred }, 0.5, func() float64 { return ts }, Metrics{
		Queries:  reg.Counter("reccache.queries"),
		Updates:  reg.Counter("reccache.updates"),
		Runs:     reg.Counter("reccache.runs"),
		Admitted: reg.Counter("reccache.admitted"),
		Evicted:  reg.Counter("reccache.evicted"),
	})
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
	if err := m.MaterializeUser(2); err != nil {
		t.Fatal(err)
	}
	ts = 15
	dec := m.Run()
	if got := get("reccache.runs"); got != 1 {
		t.Fatalf("runs = %d, want 1", got)
	}
	if dec.Admitted != 1 || dec.Evicted != 1 {
		t.Fatalf("decision %+v, want user 1 admitted and user 2 evicted", dec)
	}
	if got := get("reccache.admitted"); got != int64(dec.Admitted) {
		t.Fatalf("admitted = %d, want %d", got, dec.Admitted)
	}
	if got := get("reccache.evicted"); got != int64(dec.Evicted) {
		t.Fatalf("evicted = %d, want %d", got, dec.Evicted)
	}
}
