package main

import (
	"bytes"
	"strings"
	"testing"
)

// runBench runs the command in-process and returns its exit code and output.
func runBench(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// TestUnknownExperimentExitsTwo pins that an -exp id naming no experiment
// is a usage error that lists the valid ids and runs nothing — alone,
// beside valid ids (the typo case), for each harness id the ledger
// (go run ./benchmark) retired, for a4, the neighbourhood-cap ablation
// retired with the cap, and for a6, the model-page-read ablation retired
// when models stopped having pages.
func TestUnknownExperimentExitsTwo(t *testing.T) {
	for _, exp := range []string{
		"typo", "fig6,typo", "typo,fig6", "", ",",
		"serve", "sharded", "durability", "metrics", "scaling", "a4", "a6", "fig6,serve",
	} {
		code, stdout, stderr := runBench(t, "-exp", exp, "-scale", "0.02")
		if code != 2 {
			t.Errorf("-exp %q: exit = %d, want 2; stderr:\n%s", exp, code, stderr)
		}
		if stdout != "" {
			t.Errorf("-exp %q: ran something before refusing:\n%s", exp, stdout)
		}
		for _, id := range []string{"table2", "fig6", "fig12", "a1", "a5", "ann", "ablations", "all"} {
			if !strings.Contains(stderr, id) {
				t.Errorf("-exp %q: stderr does not list valid id %q:\n%s", exp, id, stderr)
			}
		}
	}
}

func TestBadFlagExitsTwo(t *testing.T) {
	for _, args := range [][]string{
		{"-ann-scales", "x"},
		{"-workers", "1,2"},    // read only by the retired scaling harness
		{"-neighborhood", "0"}, // the similarity-list cap, retired: lists are whole
		{"-conns", "8"},
	} {
		if code, _, stderr := runBench(t, args...); code != 2 {
			t.Errorf("%v: exit = %d, want 2; stderr:\n%s", args, code, stderr)
		}
	}
}

// TestAblationsSelectsA1A2A3A5 runs the group alias end to end at a tiny
// scale: exactly the four ablation tables, in order, and exit 0.
func TestAblationsSelectsA1A2A3A5(t *testing.T) {
	code, stdout, stderr := runBench(t, "-exp", "ablations", "-scale", "0.02", "-reps", "1")
	if code != 0 {
		t.Fatalf("exit = %d, want 0; stderr:\n%s", code, stderr)
	}
	var got []string
	for _, line := range strings.Split(stdout, "\n") {
		if strings.HasPrefix(line, "== ") {
			got = append(got, strings.Fields(line)[2])
		}
	}
	if want := "A1 A2 A3 A5"; strings.Join(got, " ") != want {
		t.Errorf("tables = %v, want %s", got, want)
	}
}
