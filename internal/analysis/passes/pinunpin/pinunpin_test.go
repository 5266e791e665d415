package pinunpin_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"recdb/internal/analysis"
	"recdb/internal/analysis/analysistest"
	"recdb/internal/analysis/passes/pinunpin"
)

func TestViolations(t *testing.T) { analysistest.Run(t, ".", pinunpin.Analyzer, "a") }

func TestCompliant(t *testing.T) { analysistest.Run(t, ".", pinunpin.Analyzer, "b") }

// TestOnlyTheFirstErrTestIsTheFetchGuard: `if err != nil { return }` holds
// no pin only as the Fetch's own failure edge. Once that test has passed,
// the same err variable reused for a later call guards a return that runs
// with the page pinned — in a loop too, where the back edge brings the
// pinned state round to the guard again.
func TestOnlyTheFirstErrTestIsTheFetchGuard(t *testing.T) {
	const src = `package p

type BufferPool struct{}

func (bp *BufferPool) Fetch(id int) ([]byte, error) { return nil, nil }
func (bp *BufferPool) Unpin(id int, dirty bool)     {}

func check([]byte) error { return nil }

func reused(bp *BufferPool, id int) error {
	buf, err := bp.Fetch(id) // leak
	if err != nil {
		return err
	}
	err = check(buf)
	if err != nil {
		return err
	}
	bp.Unpin(id, false)
	return nil
}

func perPage(bp *BufferPool, n int) error {
	for id := 0; id < n; id++ {
		buf, err := bp.Fetch(id)
		if err != nil {
			return err
		}
		err = check(buf)
		bp.Unpin(id, false)
		if err != nil {
			return err
		}
	}
	return nil
}
`
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "p.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	loader, err := analysis.NewLoader(dir)
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := loader.LoadDir(dir)
	if err != nil || len(pkg.Errors) > 0 {
		t.Fatalf("load: %v %v", err, pkg.Errors)
	}
	diags, err := analysis.Run([]*analysis.Package{pkg}, []*analysis.Analyzer{pinunpin.Analyzer})
	if err != nil {
		t.Fatal(err)
	}
	leakLine := strings.Count(src[:strings.Index(src, "// leak")], "\n") + 1
	if len(diags) != 1 || diags[0].Pos.Line != leakLine || !strings.Contains(diags[0].Message, "not unpinned on every path") {
		t.Fatalf("want one leak at line %d, got %v", leakLine, diags)
	}
}
