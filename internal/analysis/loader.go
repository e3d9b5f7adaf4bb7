// Package analysis is lockorder, the one static concurrency check the
// repository keeps (DESIGN.md §9): a call graph over the module that
// reports overlay and transport sends under a held mutex and lock-order
// cycles. TestSuiteCleanOnTree runs it over the tree.
//
// It is built entirely on the standard library (go/build, go/parser,
// go/types): the module has no dependencies, so x/tools is deliberately
// not imported. Imported packages — including the standard library,
// type-checked from GOROOT sources — are loaded with IgnoreFuncBodies, so
// only the packages under analysis pay for full body checking.
package analysis

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one fully type-checked package under analysis.
type Package struct {
	Path  string // import path ("cqjoin/internal/engine")
	Dir   string // absolute directory
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Loader resolves import paths to directories and type-checks packages
// without consulting a module proxy: module-local paths resolve against the
// module root, test fixtures resolve against SrcRoot, and everything else
// resolves against GOROOT/src (with the GOROOT vendor fallback the standard
// library needs for its golang.org/x/... imports).
type Loader struct {
	Fset *token.FileSet

	moduleDir  string // module root; "" when loading test fixtures only
	modulePath string // from go.mod; "" when moduleDir is ""
	srcRoot    string // extra source root (test fixtures); "" for the module
	ctx        build.Context

	full    map[string]*Package       // fully checked packages (module + srcRoot)
	shallow map[string]*types.Package // signature-only imports (stdlib)
	loading map[string]bool           // cycle guard
}

// NewLoader builds a loader. moduleDir is the module root whose go.mod
// names the module path (may be "" for fixture-only loads); srcRoot is an
// optional extra root consulted before GOROOT, used by the fixture tests
// to supply fake dependency packages.
func NewLoader(moduleDir, srcRoot string) (*Loader, error) {
	l := &Loader{
		Fset:    token.NewFileSet(),
		srcRoot: srcRoot,
		ctx:     build.Default,
		full:    make(map[string]*Package),
		shallow: make(map[string]*types.Package),
		loading: make(map[string]bool),
	}
	// Pure-Go view of every package: the type checker cannot expand cgo,
	// and each package in this tree (and its stdlib closure) has a pure
	// variant behind the cgo build tag.
	l.ctx.CgoEnabled = false
	if moduleDir != "" {
		abs, err := filepath.Abs(moduleDir)
		if err != nil {
			return nil, err
		}
		mod, err := modulePathOf(abs)
		if err != nil {
			return nil, err
		}
		l.moduleDir = abs
		l.modulePath = mod
	}
	return l, nil
}

// modulePathOf reads the module path from dir/go.mod.
func modulePathOf(dir string) (string, error) {
	data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
	if err != nil {
		return "", fmt.Errorf("analysis: read go.mod: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("analysis: no module line in %s/go.mod", dir)
}

// Import implements types.Importer so a Loader can be handed straight to
// types.Config; it returns signature-complete packages for any import the
// packages under analysis mention.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if p, ok := l.full[path]; ok {
		return p.Types, nil
	}
	if p, ok := l.shallow[path]; ok {
		return p, nil
	}
	dir, deep, err := l.resolve(path)
	if err != nil {
		return nil, err
	}
	if deep {
		p, err := l.loadFull(path, dir)
		if err != nil {
			return nil, err
		}
		return p.Types, nil
	}
	return l.loadShallow(path, dir)
}

// resolve maps an import path to a directory and reports whether the
// package deserves a full (body-checked, Info-carrying) load.
func (l *Loader) resolve(path string) (dir string, deep bool, err error) {
	if l.modulePath != "" {
		if path == l.modulePath {
			return l.moduleDir, true, nil
		}
		if rest, ok := strings.CutPrefix(path, l.modulePath+"/"); ok {
			return filepath.Join(l.moduleDir, filepath.FromSlash(rest)), true, nil
		}
	}
	if l.srcRoot != "" {
		d := filepath.Join(l.srcRoot, filepath.FromSlash(path))
		if fi, statErr := os.Stat(d); statErr == nil && fi.IsDir() {
			return d, true, nil
		}
	}
	goroot := l.ctx.GOROOT
	for _, d := range []string{
		filepath.Join(goroot, "src", filepath.FromSlash(path)),
		filepath.Join(goroot, "src", "vendor", filepath.FromSlash(path)),
	} {
		if fi, statErr := os.Stat(d); statErr == nil && fi.IsDir() {
			return d, false, nil
		}
	}
	return "", false, fmt.Errorf("analysis: cannot resolve import %q (offline loader: module, fixture and GOROOT roots only)", path)
}

// buildableGoFiles returns the build-constraint-filtered .go files of dir.
func (l *Loader) buildableGoFiles(dir string) ([]string, error) {
	bp, err := l.ctx.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	files := make([]string, 0, len(bp.GoFiles))
	for _, f := range bp.GoFiles {
		files = append(files, filepath.Join(dir, f))
	}
	sort.Strings(files)
	return files, nil
}

func (l *Loader) parse(paths []string, mode parser.Mode) ([]*ast.File, error) {
	files := make([]*ast.File, 0, len(paths))
	for _, p := range paths {
		f, err := parser.ParseFile(l.Fset, p, nil, mode)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// loadFull type-checks a package with function bodies and full type
// information; errors are fatal (the tree is expected to compile).
func (l *Loader) loadFull(path, dir string) (*Package, error) {
	if l.loading[path] {
		return nil, fmt.Errorf("analysis: import cycle through %q", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	goFiles, err := l.buildableGoFiles(dir)
	if err != nil {
		return nil, err
	}
	files, err := l.parse(goFiles, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		return nil, err
	}
	info := &types.Info{
		Types:     make(map[ast.Expr]types.TypeAndValue),
		Defs:      make(map[*ast.Ident]types.Object),
		Uses:      make(map[*ast.Ident]types.Object),
		Implicits: make(map[ast.Node]types.Object),
	}
	var errs []error
	conf := types.Config{
		Importer:    l,
		FakeImportC: true,
		Error:       func(err error) { errs = append(errs, err) },
	}
	tpkg, _ := conf.Check(path, l.Fset, files, info)
	if len(errs) > 0 {
		return nil, fmt.Errorf("analysis: type errors in %s: %v", path, errs[0])
	}
	p := &Package{Path: path, Dir: dir, Files: files, Types: tpkg, Info: info}
	l.full[path] = p
	return p, nil
}

// loadShallow type-checks an imported (non-analyzed) package from source
// with IgnoreFuncBodies. Errors are tolerated: an exotic corner of a
// stdlib package body or initializer must not block analysis of this
// module, and the resulting package is still signature-complete enough for
// the packages that import it (the tree is known to compile under the real
// toolchain).
func (l *Loader) loadShallow(path, dir string) (*types.Package, error) {
	if l.loading[path] {
		return nil, fmt.Errorf("analysis: import cycle through %q", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	goFiles, err := l.buildableGoFiles(dir)
	if err != nil {
		return nil, err
	}
	files, err := l.parse(goFiles, parser.SkipObjectResolution)
	if err != nil {
		return nil, err
	}
	conf := types.Config{
		Importer:         l,
		FakeImportC:      true,
		IgnoreFuncBodies: true,
		Error:            func(error) {}, // tolerate; see doc comment
	}
	tpkg, _ := conf.Check(path, l.Fset, files, nil)
	if tpkg == nil {
		return nil, fmt.Errorf("analysis: cannot type-check import %q", path)
	}
	tpkg.MarkComplete()
	l.shallow[path] = tpkg
	return tpkg, nil
}

// FullPackages returns every fully loaded package, including fixture
// dependencies pulled in transitively.
func (l *Loader) FullPackages() []*Package {
	out := make([]*Package, 0, len(l.full))
	for _, p := range l.full {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out
}

// Load returns the fully checked package for an import path (resolving
// through the module or fixture root).
func (l *Loader) Load(path string) (*Package, error) {
	if p, ok := l.full[path]; ok {
		return p, nil
	}
	dir, deep, err := l.resolve(path)
	if err != nil {
		return nil, err
	}
	if !deep {
		return nil, fmt.Errorf("analysis: %q is not a module or fixture package", path)
	}
	return l.loadFull(path, dir)
}

// LoadModule loads every package of the module.
func (l *Loader) LoadModule() ([]*Package, error) {
	if l.moduleDir == "" {
		return nil, fmt.Errorf("analysis: LoadModule requires a module root")
	}
	paths, err := l.walkModule(l.moduleDir)
	if err != nil {
		return nil, err
	}
	pkgs := make([]*Package, 0, len(paths))
	for _, path := range paths {
		p, err := l.Load(path)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

func (l *Loader) importPathFor(rel string) string {
	rel = filepath.ToSlash(rel)
	if rel == "." || rel == "" {
		return l.modulePath
	}
	return l.modulePath + "/" + rel
}

// walkModule finds every buildable package directory under root, skipping
// hidden directories and testdata trees.
func (l *Loader) walkModule(root string) ([]string, error) {
	var paths []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
			return filepath.SkipDir
		}
		if _, err := l.ctx.ImportDir(path, 0); err != nil {
			if _, ok := err.(*build.NoGoError); ok {
				return nil // directory without buildable Go files
			}
			return err
		}
		rel, err := filepath.Rel(l.moduleDir, path)
		if err != nil {
			return err
		}
		paths = append(paths, l.importPathFor(rel))
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	return paths, nil
}
