package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// lint runs the driver in-process against testdata fixture packages.
func lint(t *testing.T, opts options, patterns ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(opts, patterns, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

func TestCleanExitsZero(t *testing.T) {
	code, out, _ := lint(t, options{}, "./testdata/src/clean")
	if code != 0 {
		t.Fatalf("exit = %d, want 0; output:\n%s", code, out)
	}
	if out != "" {
		t.Errorf("clean run must print nothing, got:\n%s", out)
	}
}

func TestFindingsExitOne(t *testing.T) {
	code, out, stderr := lint(t, options{}, "./testdata/src/dirty")
	if code != 1 {
		t.Fatalf("exit = %d, want 1; stderr:\n%s", code, stderr)
	}
	if !strings.Contains(out, "locksafe") || !strings.Contains(out, "dirty.go") {
		t.Errorf("findings must name the analyzer and file:\n%s", out)
	}
	if !strings.Contains(stderr, "finding(s)") {
		t.Errorf("summary goes to stderr, got:\n%s", stderr)
	}
}

func TestLoadErrorExitsTwo(t *testing.T) {
	code, _, stderr := lint(t, options{}, "./testdata/src/no-such-package")
	if code != 2 {
		t.Fatalf("exit = %d, want 2; stderr:\n%s", code, stderr)
	}
}

// TestJSONGolden pins the machine-readable format: an array of findings
// with stable field names, indented, deterministic order.
func TestJSONGolden(t *testing.T) {
	code, out, _ := lint(t, options{jsonOut: true}, "./testdata/src/dirty")
	if code != 1 {
		t.Fatalf("exit = %d, want 1", code)
	}
	var findings []struct {
		File     string `json:"file"`
		Line     int    `json:"line"`
		Column   int    `json:"column"`
		Analyzer string `json:"analyzer"`
		Message  string `json:"message"`
	}
	if err := json.Unmarshal([]byte(out), &findings); err != nil {
		t.Fatalf("output is not a JSON findings array: %v\n%s", err, out)
	}
	if len(findings) == 0 {
		t.Fatal("dirty fixture must yield findings")
	}
	f := findings[0]
	if f.Analyzer != "locksafe" || !strings.HasSuffix(f.File, "dirty.go") || f.Line == 0 || f.Column == 0 {
		t.Errorf("unexpected first finding: %+v", f)
	}
	if !strings.Contains(f.Message, "without holding") {
		t.Errorf("message = %q, want guarded-field diagnostic", f.Message)
	}
}

func TestJSONCleanIsEmptyArray(t *testing.T) {
	code, out, _ := lint(t, options{jsonOut: true}, "./testdata/src/clean")
	if code != 0 {
		t.Fatalf("exit = %d, want 0", code)
	}
	if strings.TrimSpace(out) != "[]" {
		t.Errorf("clean JSON output = %q, want []", out)
	}
}

// TestListNamesAllAnalyzers pins the registry: all six analyzers, one
// per line, in stable order.
func TestListNamesAllAnalyzers(t *testing.T) {
	code, out, _ := lint(t, options{list: true})
	if code != 0 {
		t.Fatalf("exit = %d, want 0", code)
	}
	want := []string{
		"closecheck", "deferloop", "errwrap", "locksafe", "nopanic",
		"pinunpin",
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != len(want) {
		t.Fatalf("listed %d analyzers, want %d:\n%s", len(lines), len(want), out)
	}
	for i, name := range want {
		if !strings.HasPrefix(lines[i], name) {
			t.Errorf("line %d = %q, want prefix %q", i, lines[i], name)
		}
	}
}
