package rec

import (
	"errors"
	"testing"
	"time"

	"recdb/internal/types"
)

// TestRebuildFailureKeepsPreviousModel exercises graceful degradation:
// while rebuilds fail, the recommender keeps serving the last good model,
// inserts keep succeeding, health reports the failure, and maintenance
// retries with exponential backoff.
func TestRebuildFailureKeepsPreviousModel(t *testing.T) {
	cat, tab := newCatalogWithRatings(t, paperRatings())
	m := NewManager(cat, Options{})
	now := time.Unix(1000, 0)
	m.now = func() time.Time { return now }

	r, err := m.Create("Rec", "ratings", "uid", "iid", "ratingval", "ItemCosCF")
	if err != nil {
		t.Fatal(err)
	}
	if h := r.Health(); !h.Healthy || h.Failures != 0 {
		t.Fatalf("fresh health = %+v", h)
	}
	goodStore := r.Store()
	pred := func() float64 {
		v, ok := goodStore.Predict(1, 3)
		if !ok {
			t.Fatal("no prediction")
		}
		return v
	}
	before := pred()

	// Arm the fault and flood inserts past the rebuild threshold.
	buildErr := errors.New("injected build failure")
	m.buildFault = func() error { return buildErr }
	insert := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if _, err := tab.Insert(types.Row{types.NewInt(99), types.NewInt(int64(100 + i)), types.NewFloat(3)}); err != nil {
				t.Fatal(err)
			}
		}
		// The insert path must not fail even though the rebuild does.
		if err := m.NotifyInsert("ratings", n); err != nil {
			t.Fatalf("NotifyInsert during degraded rebuild: %v", err)
		}
	}
	insert(10)

	h := r.Health()
	if h.Healthy || h.Failures != 1 || !errors.Is(h.LastError, buildErr) {
		t.Fatalf("degraded health = %+v", h)
	}
	if want := now.Add(500 * time.Millisecond); !h.NextRetry.Equal(want) {
		t.Fatalf("first backoff NextRetry = %v, want %v", h.NextRetry, want)
	}
	// The previous model still serves, unchanged.
	if r.Store() != goodStore {
		t.Fatal("failed rebuild swapped the model store")
	}
	if got := pred(); got != before {
		t.Fatalf("prediction drifted while degraded: %v != %v", got, before)
	}

	// Within the backoff window maintenance must NOT retry.
	now = now.Add(100 * time.Millisecond)
	insert(1)
	if h = r.Health(); h.Failures != 1 {
		t.Fatalf("retried inside backoff window: %+v", h)
	}

	// Past the window it retries, fails again, and the window doubles.
	now = now.Add(500 * time.Millisecond)
	insert(1)
	h = r.Health()
	if h.Failures != 2 {
		t.Fatalf("no retry after backoff: %+v", h)
	}
	if want := now.Add(1 * time.Second); !h.NextRetry.Equal(want) {
		t.Fatalf("second backoff NextRetry = %v, want %v", h.NextRetry, want)
	}

	// Clear the fault: the next eligible retry succeeds, health recovers,
	// and the rebuilt model includes the new ratings.
	m.buildFault = nil
	now = now.Add(2 * time.Second)
	insert(1)
	h = r.Health()
	if !h.Healthy || h.Failures != 0 || h.LastError != nil || h.Pending != 0 {
		t.Fatalf("health after recovery = %+v", h)
	}
	if r.Store() == goodStore {
		t.Fatal("recovered rebuild did not swap in a new model")
	}
	if h.Rebuilds != 1 {
		t.Fatalf("rebuilds = %d, want 1", h.Rebuilds)
	}
}

func TestBackoffCapsAtMax(t *testing.T) {
	if d := backoffAfter(1); d != 500*time.Millisecond {
		t.Fatalf("backoff(1) = %v", d)
	}
	if d := backoffAfter(4); d != 4*time.Second {
		t.Fatalf("backoff(4) = %v", d)
	}
	if d := backoffAfter(50); d != 60*time.Second {
		t.Fatalf("backoff(50) = %v, want cap", d)
	}
}

func TestExplicitRebuildReturnsAndRecordsError(t *testing.T) {
	cat, _ := newCatalogWithRatings(t, paperRatings())
	m := NewManager(cat, Options{})
	r, err := m.Create("Rec", "ratings", "uid", "iid", "ratingval", "ItemCosCF")
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	m.buildFault = func() error { return boom }
	// Explicit Rebuild surfaces the error to its caller AND records it.
	if err := m.Rebuild("Rec"); !errors.Is(err, boom) {
		t.Fatalf("Rebuild err = %v", err)
	}
	if h := r.Health(); h.Healthy || !errors.Is(h.LastError, boom) {
		t.Fatalf("health = %+v", h)
	}
	if got := m.HealthAll(); len(got) != 1 || got[0].Name != "Rec" {
		t.Fatalf("HealthAll = %+v", got)
	}
}
