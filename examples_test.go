package recdb

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestExamplesRun executes every example binary end to end and checks for
// the landmarks each one prints. Skipped under -short (each `go run`
// compiles a binary).
func TestExamplesRun(t *testing.T) {
	if testing.Short() {
		t.Skip("examples are slow under -short")
	}
	cases := []struct {
		dir   string
		wants []string
	}{
		{"quickstart", []string{"GeneralRec model built", "Recommendations for Alice", "plan: JoinRecommend"}},
		{"movies", []string{"plan: FilterRecommend", "plan: JoinRecommend", "plan: IndexRecommend", "overlap on"}},
		{"poi", []string{"Query 6", "Query 7", "Query 8", "SpatialIndexScan"}},
		{"caching", []string{"plan: IndexRecommend", "cache maintenance: admitted 1 users, evicted 1", "user 6's top-10 after maintenance: [plan: IndexRecommend]", "index invalidated", "stopped cleanly"}},
		{"analytics", []string{"Average rating", "USING Popularity", "strategy: FilterRecommend", "strategy: IndexRecommend"}},
	}
	root, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cases {
		c := c
		t.Run(c.dir, func(t *testing.T) {
			t.Parallel()
			cmd := exec.Command("go", "run", "./"+filepath.Join("examples", c.dir))
			cmd.Dir = root
			out, err := cmd.CombinedOutput()
			if err != nil {
				t.Fatalf("example %s failed: %v\n%s", c.dir, err, out)
			}
			for _, want := range c.wants {
				if !strings.Contains(string(out), want) {
					t.Errorf("example %s output missing %q:\n%s", c.dir, want, out)
				}
			}
		})
	}
}
