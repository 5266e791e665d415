package analysis

import (
	"fmt"
	"sort"
	"strings"
)

// Run applies every analyzer to every package and returns the surviving
// diagnostics sorted by file, line, column, analyzer, and message — a
// deterministic order so CI output is stable and diffable. Findings
// silenced by //lint:ignore comments are dropped.
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, pkg := range pkgs {
		if pkg.Types == nil {
			continue // nothing type-checked to analyze
		}
		sup := suppressionsOf(pkg)
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer:  a,
				Fset:      pkg.fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.TypesInfo,
				diags:     &diags,
			}
			before := len(diags)
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("analysis: %s on %s: %w", a.Name, pkg.Path, err)
			}
			diags = sup.filter(diags, before)
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	return dedup(diags), nil
}

func dedup(diags []Diagnostic) []Diagnostic {
	out := diags[:0]
	for i, d := range diags {
		if i > 0 && d == diags[i-1] {
			continue
		}
		out = append(out, d)
	}
	return out
}

// suppressionKey identifies one silenced (file, line, analyzer) triple.
type suppressionKey struct {
	file     string
	line     int
	analyzer string
}

type suppressions map[suppressionKey]bool

// suppressionsOf scans a package's comments for //lint:ignore directives.
// A directive suppresses the named analyzers on its own line and the line
// below, so it works both as a trailing comment and as a lead-in line.
func suppressionsOf(pkg *Package) suppressions {
	sup := make(suppressions)
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, "//lint:ignore ")
				if !ok {
					continue
				}
				fields := strings.Fields(rest)
				if len(fields) < 2 {
					continue // a reason is mandatory
				}
				pos := pkg.fset.Position(c.Pos())
				for _, name := range strings.Split(fields[0], ",") {
					sup[suppressionKey{pos.Filename, pos.Line, name}] = true
					sup[suppressionKey{pos.Filename, pos.Line + 1, name}] = true
				}
			}
		}
	}
	return sup
}

// filter drops suppressed diagnostics appended at or after index from.
func (s suppressions) filter(diags []Diagnostic, from int) []Diagnostic {
	if len(s) == 0 {
		return diags
	}
	out := diags[:from]
	for _, d := range diags[from:] {
		if s[suppressionKey{d.Pos.Filename, d.Pos.Line, d.Analyzer}] {
			continue
		}
		out = append(out, d)
	}
	return out
}
