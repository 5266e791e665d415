// Package analysis is a from-scratch, stdlib-only static-analysis
// framework for RecDB. It exists because the kernel invariants this
// codebase depends on — every pinned buffer-pool page is unpinned, every
// volcano operator is closed, every mutex-guarded field is read under its
// lock — are invisible to go vet, yet a single violation silently degrades
// the engine (a leaked pin eventually exhausts the pool; an unclosed
// iterator holds a pin forever).
//
// The framework mirrors the shape of golang.org/x/tools/go/analysis
// without depending on it: an Analyzer bundles a name, documentation, and
// a Run function over a Pass; the loader (loader.go) parses and
// type-checks module packages using only go/parser, go/types, and the
// stdlib source importer; the runner (runner.go) applies analyzers,
// filters suppressed findings, and reports diagnostics deterministically.
//
// Suppressions: a comment of the form
//
//	//lint:ignore <analyzer>[,<analyzer>...] <reason>
//
// on the flagged line or the line directly above it silences those
// analyzers for that line. A reason is mandatory; suppressions without one
// are ignored.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer is one static check. Run inspects a single type-checked package
// and reports findings through the Pass.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and suppressions. It
	// must be a valid identifier.
	Name string
	// Doc describes the invariant the analyzer enforces.
	Doc string
	// Run performs the analysis. It reports findings via Pass.Reportf and
	// returns an error only for internal failures (not findings).
	Run func(*Pass) error
}

// Pass carries one package through one analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	diags *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one finding, resolved to a file position.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// String renders the diagnostic in the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}
