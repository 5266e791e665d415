package analysis

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one parsed and type-checked package. Type-checking is
// best-effort: Errors collects parse and type errors, and analyzers run
// over whatever was recovered, so one broken file does not hide findings
// in the rest of the module.
type Package struct {
	// Path is the import path ("recdb/internal/storage"), or the
	// directory base name for packages loaded outside a module.
	Path string
	// Dir is the directory the package was loaded from.
	Dir string
	// Files are the parsed non-test source files.
	Files []*ast.File
	// Types is the type-checked package object (possibly incomplete when
	// Errors is non-empty).
	Types *types.Package
	// TypesInfo holds the resolved identifier/selection/type maps.
	TypesInfo *types.Info
	// Errors collects parse and type-check errors, in encounter order.
	Errors []error

	fset *token.FileSet // the FileSet the files were parsed with
}

// Fset returns the FileSet the package's files were parsed with.
func (p *Package) Fset() *token.FileSet { return p.fset }

// Loader parses and type-checks packages of one module. Module-internal
// imports are resolved by loading the imported package from source;
// everything else (the standard library) is resolved through the stdlib
// source importer, so the loader works with nothing but a Go toolchain.
type Loader struct {
	Fset *token.FileSet

	modPath string // module path from go.mod ("" outside a module)
	modRoot string // directory containing go.mod
	std     types.Importer
	pkgs    map[string]*Package // by import path
	loading map[string]bool     // cycle guard
}

// NewLoader creates a loader rooted at dir: the nearest enclosing go.mod
// (if any) defines which import paths are module-internal.
func NewLoader(dir string) (*Loader, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	l := &Loader{
		Fset:    token.NewFileSet(),
		pkgs:    make(map[string]*Package),
		loading: make(map[string]bool),
	}
	l.std = importer.ForCompiler(l.Fset, "source", nil)
	if root, path, ok := findModule(abs); ok {
		l.modRoot, l.modPath = root, path
	}
	return l, nil
}

// findModule walks up from dir looking for go.mod and returns the module
// root directory and module path.
func findModule(dir string) (root, path string, ok bool) {
	for d := dir; ; d = filepath.Dir(d) {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, found := strings.CutPrefix(line, "module "); found {
					return d, strings.TrimSpace(rest), true
				}
			}
			return d, "", false
		}
		if parent := filepath.Dir(d); parent == d {
			return "", "", false
		}
	}
}

// Load resolves the given patterns to package directories and loads each.
// Supported patterns: a directory path, or a path ending in "/..." which
// walks that directory recursively (skipping testdata, hidden, and
// underscore-prefixed directories, as the go tool does). Packages that
// fail to parse or type-check are still returned, with Errors populated.
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	var dirs []string
	seen := make(map[string]bool)
	add := func(d string) {
		d = filepath.Clean(d)
		if !seen[d] {
			seen[d] = true
			dirs = append(dirs, d)
		}
	}
	for _, pat := range patterns {
		if rest, ok := strings.CutSuffix(pat, "/..."); ok || pat == "..." {
			base := rest
			if pat == "..." {
				base = "."
			}
			err := filepath.WalkDir(base, func(path string, d os.DirEntry, err error) error {
				if err != nil {
					return err
				}
				if !d.IsDir() {
					return nil
				}
				name := d.Name()
				if path != base && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
					return filepath.SkipDir
				}
				if hasGoFiles(path) {
					add(path)
				}
				return nil
			})
			if err != nil {
				return nil, err
			}
			continue
		}
		add(pat)
	}
	var out []*Package
	for _, dir := range dirs {
		pkg, err := l.LoadDir(dir)
		if err != nil {
			return out, err
		}
		out = append(out, pkg)
	}
	return out, nil
}

func hasGoFiles(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		if isSource(dir, e) {
			return true
		}
	}
	return false
}

// isSource reports whether a directory entry is a non-test Go file that
// the build on this platform includes: of two files that implement one
// name for different platforms only one may reach the type checker. A
// file whose constraints cannot be read is loaded and reports for
// itself.
func isSource(dir string, e os.DirEntry) bool {
	name := e.Name()
	if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
		return false
	}
	match, err := build.Default.MatchFile(dir, name)
	return match || err != nil
}

// LoadDir loads the package in one directory. The result is memoized by
// import path.
func (l *Loader) LoadDir(dir string) (*Package, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	return l.loadPath(l.importPathFor(abs), abs)
}

// importPathFor derives the import path of a directory: module-relative
// when inside the module, the base name otherwise (testdata fixtures).
func (l *Loader) importPathFor(abs string) string {
	if l.modRoot != "" {
		if rel, err := filepath.Rel(l.modRoot, abs); err == nil && rel != ".." && !strings.HasPrefix(rel, "../") {
			if rel == "." {
				return l.modPath
			}
			return l.modPath + "/" + filepath.ToSlash(rel)
		}
	}
	return filepath.Base(abs)
}

// dirFor maps a module-internal import path back to its directory.
func (l *Loader) dirFor(path string) (string, bool) {
	if l.modPath == "" {
		return "", false
	}
	if path == l.modPath {
		return l.modRoot, true
	}
	if rel, ok := strings.CutPrefix(path, l.modPath+"/"); ok {
		return filepath.Join(l.modRoot, filepath.FromSlash(rel)), true
	}
	return "", false
}

func (l *Loader) loadPath(importPath, dir string) (*Package, error) {
	if pkg, ok := l.pkgs[importPath]; ok {
		return pkg, nil
	}
	if l.loading[importPath] {
		return nil, fmt.Errorf("analysis: import cycle through %q", importPath)
	}
	l.loading[importPath] = true
	defer delete(l.loading, importPath)

	pkg := &Package{Path: importPath, Dir: dir, fset: l.Fset}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("analysis: %w", err)
	}
	var names []string
	for _, e := range entries {
		if isSource(dir, e) {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		return nil, fmt.Errorf("analysis: no Go files in %s", dir)
	}
	for _, name := range names {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			pkg.Errors = append(pkg.Errors, err)
		}
		if f != nil {
			pkg.Files = append(pkg.Files, f)
		}
	}
	pkg.TypesInfo = &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
	conf := types.Config{
		Importer: (*loaderImporter)(l),
		Error: func(err error) {
			pkg.Errors = append(pkg.Errors, err)
		},
	}
	// Check returns a usable (if incomplete) package even on error; errors
	// were already captured by the Error callback above.
	tpkg, _ := conf.Check(importPath, l.Fset, pkg.Files, pkg.TypesInfo)
	pkg.Types = tpkg
	l.pkgs[importPath] = pkg
	return pkg, nil
}

// loaderImporter adapts the Loader to types.Importer: module-internal
// paths load from source through the loader; everything else goes to the
// stdlib source importer.
type loaderImporter Loader

func (li *loaderImporter) Import(path string) (*types.Package, error) {
	l := (*Loader)(li)
	if dir, ok := l.dirFor(path); ok {
		pkg, err := l.loadPath(path, dir)
		if err != nil {
			return nil, err
		}
		if pkg.Types == nil {
			return nil, fmt.Errorf("analysis: package %q failed to type-check", path)
		}
		return pkg.Types, nil
	}
	return l.std.Import(path)
}
