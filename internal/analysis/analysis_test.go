package analysis_test

import (
	"path/filepath"
	"sort"
	"testing"

	"recdb/internal/analysis"
	"recdb/internal/analysis/passes/locksafe"
)

// funcmark reports every function declaration — a trivial analyzer used to
// exercise the runner.
var funcmark = &analysis.Analyzer{
	Name: "funcmark",
	Doc:  "test analyzer reporting each function",
	Run: func(pass *analysis.Pass) error {
		// Report in reverse file order to prove the runner sorts output.
		decls := analysis.FuncDecls(pass.Files)
		for i := len(decls) - 1; i >= 0; i-- {
			pass.Reportf(decls[i].Pos(), "func %s", decls[i].Name.Name)
		}
		return nil
	},
}

func load(t *testing.T, pkg string) (*analysis.Loader, *analysis.Package) {
	t.Helper()
	loader, err := analysis.NewLoader(".")
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	p, err := loader.LoadDir(filepath.Join("testdata", "src", pkg))
	if err != nil {
		t.Fatalf("LoadDir(%s): %v", pkg, err)
	}
	return loader, p
}

// TestLoaderToleratesParseErrors: a package with a syntax error must still
// load, report its errors, and expose whatever was recovered — one broken
// file must not make the whole module un-analyzable.
func TestLoaderToleratesParseErrors(t *testing.T) {
	_, p := load(t, "broken")
	if len(p.Errors) == 0 {
		t.Fatal("expected parse errors for the broken fixture, got none")
	}
	if len(p.Files) == 0 {
		t.Fatal("expected a (partial) AST even with parse errors")
	}
	// Running analyzers over the partial package must not panic or error.
	if _, err := analysis.Run([]*analysis.Package{p}, []*analysis.Analyzer{funcmark}); err != nil {
		t.Fatalf("Run over broken package: %v", err)
	}
}

// TestDeterministicOrder: diagnostics come back sorted by position no
// matter what order the analyzer reported them in.
func TestDeterministicOrder(t *testing.T) {
	_, p := load(t, "ok")
	diags, err := analysis.Run([]*analysis.Package{p}, []*analysis.Analyzer{funcmark})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(diags) == 0 {
		t.Fatal("expected diagnostics")
	}
	sorted := sort.SliceIsSorted(diags, func(i, j int) bool {
		if diags[i].Pos.Filename != diags[j].Pos.Filename {
			return diags[i].Pos.Filename < diags[j].Pos.Filename
		}
		return diags[i].Pos.Line < diags[j].Pos.Line
	})
	if !sorted {
		t.Errorf("diagnostics not sorted by position: %v", diags)
	}
}

// TestSuppression: a //lint:ignore directive naming the analyzer silences
// the finding on the next line; other findings survive.
func TestSuppression(t *testing.T) {
	_, p := load(t, "ok")
	diags, err := analysis.Run([]*analysis.Package{p}, []*analysis.Analyzer{funcmark})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	got := make(map[string]bool)
	for _, d := range diags {
		got[d.Message] = true
	}
	if got["func Middle"] {
		t.Error("finding on Middle should have been suppressed by //lint:ignore")
	}
	for _, want := range []string{"func Zebra", "func Alpha"} {
		if !got[want] {
			t.Errorf("missing expected diagnostic %q (got %v)", want, diags)
		}
	}
}

// typemark is a second trivial analyzer so tests can tell multi-analyzer
// suppression apart from single-analyzer suppression.
var typemark = &analysis.Analyzer{
	Name: "typemark",
	Doc:  "test analyzer reporting each function, under a second name",
	Run: func(pass *analysis.Pass) error {
		for _, fd := range analysis.FuncDecls(pass.Files) {
			pass.Reportf(fd.Pos(), "typemark %s", fd.Name.Name)
		}
		return nil
	},
}

// TestMultiAnalyzerSuppression: //lint:ignore a,b silences exactly the
// named analyzers, on directives in any file of the package.
func TestMultiAnalyzerSuppression(t *testing.T) {
	_, p := load(t, "multi")
	diags, err := analysis.Run([]*analysis.Package{p}, []*analysis.Analyzer{funcmark, typemark})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	got := make(map[string]bool)
	for _, d := range diags {
		got[d.Message] = true
	}
	for _, suppressed := range []string{
		"func BothSuppressed", "typemark BothSuppressed",
		"func OnlyFuncmarkSuppressed",
		"func OtherFileSuppressed", "typemark OtherFileSuppressed",
	} {
		if got[suppressed] {
			t.Errorf("%q should have been suppressed", suppressed)
		}
	}
	for _, want := range []string{
		"func Plain", "typemark Plain",
		"typemark OnlyFuncmarkSuppressed", // only funcmark was named
		"func OtherFilePlain", "typemark OtherFilePlain",
	} {
		if !got[want] {
			t.Errorf("missing expected diagnostic %q", want)
		}
	}
}

// TestAnnPoolFixtureClean: the annpool fixture mirrors the k-means worker
// pool in internal/ann (chunk-disjoint writes, modulo centroid ownership,
// an all-atomic progress counter). Its concurrency discipline is
// sanctioned by design, so the lock-dataflow analyzer must report
// nothing — a diagnostic here is a false positive that would also fire
// on the real index build.
func TestAnnPoolFixtureClean(t *testing.T) {
	_, p := load(t, "annpool")
	for _, e := range p.Errors {
		t.Errorf("annpool fixture must type-check cleanly: %v", e)
	}
	diags, err := analysis.Run([]*analysis.Package{p}, []*analysis.Analyzer{locksafe.Analyzer})
	if err != nil {
		t.Fatalf("Run(locksafe) over annpool: %v", err)
	}
	for _, d := range diags {
		t.Errorf("false positive on the ann worker-pool idiom: %s", d)
	}
}

// TestGenericsLoadAndAnalyze: type-parameterized code must type-check
// through the loader and run through the framework's own test analyzers
// plus the lock dataflow, which sees instantiated selector types, without
// errors or spurious findings.
func TestGenericsLoadAndAnalyze(t *testing.T) {
	_, p := load(t, "generics")
	for _, e := range p.Errors {
		t.Errorf("generics fixture must type-check cleanly: %v", e)
	}
	diags, err := analysis.Run([]*analysis.Package{p}, []*analysis.Analyzer{funcmark})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(diags) == 0 {
		t.Fatal("funcmark should report the generic declarations")
	}
	// The lock dataflow must survive instantiated selector types: the
	// generics fixture locks correctly everywhere, so locksafe must stay
	// silent rather than crash or misread Map[K,V] receivers.
	diags, err = analysis.Run([]*analysis.Package{p}, []*analysis.Analyzer{locksafe.Analyzer})
	if err != nil {
		t.Fatalf("Run(locksafe) over generics: %v", err)
	}
	for _, d := range diags {
		t.Errorf("locksafe false positive on generic code: %s", d)
	}
}
