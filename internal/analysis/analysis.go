package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one named static check. The shape deliberately matches
// golang.org/x/tools/go/analysis so the suite could be rehosted on the real
// framework (and `go vet -vettool`) the day the dependency is available.
type Analyzer struct {
	Name string
	Doc  string
	// Filter, when non-nil, restricts the analyzer to packages for which
	// it returns true (import-path based; used by goroleak's package
	// scope). A nil Filter means "every analyzed package".
	Filter func(pkgPath string) bool
	Run    func(*Pass) error
}

// Diagnostic is one finding, positioned in the shared FileSet.
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string
	Message  string
}

// Pass carries one analyzer's view of one package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Pkg      *Package
	Prog     *Prog

	diags *[]Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      pos,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Prog is the whole-program context shared by every pass: all loaded
// packages plus the call graph the interprocedural analyzers consult.
type Prog struct {
	Loader   *Loader
	Packages []*Package

	// cg caches the interprocedural call graph; built lazily by
	// CallGraph() the first time an interprocedural analyzer runs.
	cg *CallGraph
}

// NewProg assembles a program from loaded packages.
func NewProg(l *Loader, pkgs []*Package) *Prog {
	return &Prog{Loader: l, Packages: pkgs}
}

// Run executes the analyzers over every package, applies //lint:allow
// suppression, and returns the surviving diagnostics in file/position
// order. Malformed allow directives (no analyzer name or no reason) are
// themselves reported under the pseudo-analyzer "lintdirective".
func (prog *Prog) Run(analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, pkg := range prog.Packages {
		allows, bad := collectAllows(prog.Loader.Fset, pkg)
		diags = append(diags, bad...)
		for _, a := range analyzers {
			if a.Filter != nil && !a.Filter(pkg.Path) {
				continue
			}
			var out []Diagnostic
			pass := &Pass{Analyzer: a, Fset: prog.Loader.Fset, Pkg: pkg, Prog: prog, diags: &out}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path, err)
			}
			for _, d := range out {
				if !allows.suppresses(prog.Loader.Fset, d) {
					diags = append(diags, d)
				}
			}
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		pi, pj := prog.Loader.Fset.Position(diags[i].Pos), prog.Loader.Fset.Position(diags[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		return diags[i].Analyzer < diags[j].Analyzer
	})
	return diags, nil
}

// directiveFields splits a directive's argument text into fields,
// truncating at an embedded "//" so a trailing comment (e.g. the test
// harness's `// want`) never leaks into the directive's arguments.
func directiveFields(rest string) []string {
	fields := strings.Fields(rest)
	for i, f := range fields {
		if strings.HasPrefix(f, "//") {
			return fields[:i]
		}
	}
	return fields
}

// allowSet maps "file:line" to the analyzer names allowed on that line.
type allowSet map[string]map[string]bool

const allowPrefix = "//lint:allow "

// collectAllows scans a package's comments for //lint:allow directives.
// A directive suppresses matching diagnostics on its own line (trailing
// comment) and on the line directly below (stand-alone comment line).
func collectAllows(fset *token.FileSet, pkg *Package) (allowSet, []Diagnostic) {
	allows := make(allowSet)
	var bad []Diagnostic
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, allowPrefix)
				if !ok {
					continue
				}
				fields := directiveFields(rest)
				if len(fields) < 2 {
					bad = append(bad, Diagnostic{
						Pos:      c.Pos(),
						Analyzer: "lintdirective",
						Message:  "malformed //lint:allow: want \"//lint:allow <analyzer> <reason>\"",
					})
					continue
				}
				pos := fset.Position(c.Pos())
				for _, line := range []int{pos.Line, pos.Line + 1} {
					key := fmt.Sprintf("%s:%d", pos.Filename, line)
					if allows[key] == nil {
						allows[key] = make(map[string]bool)
					}
					allows[key][fields[0]] = true
				}
			}
		}
	}
	return allows, bad
}

func (a allowSet) suppresses(fset *token.FileSet, d Diagnostic) bool {
	pos := fset.Position(d.Pos)
	names := a[fmt.Sprintf("%s:%d", pos.Filename, pos.Line)]
	return names[d.Analyzer]
}

// funcKey renders a *types.Func as "pkgpath.Name" for package functions or
// "pkgpath.Recv.Name" for methods (pointerness of the receiver ignored),
// the form the analyzers' send tables use.
func funcKey(fn *types.Func) string {
	if fn.Pkg() == nil {
		return fn.Name()
	}
	sig, ok := fn.Type().(*types.Signature)
	if ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if ptr, isPtr := t.(*types.Pointer); isPtr {
			t = ptr.Elem()
		}
		if named, isNamed := t.(*types.Named); isNamed {
			return fn.Pkg().Path() + "." + named.Obj().Name() + "." + fn.Name()
		}
	}
	return fn.Pkg().Path() + "." + fn.Name()
}

// calleeFunc resolves the *types.Func a call expression invokes, or nil
// for indirect calls, conversions and builtins.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// walkStack is ast.Inspect with an ancestor stack: fn receives each node
// with the path from the root (excluding n itself); returning false prunes
// the subtree.
func walkStack(root ast.Node, fn func(n ast.Node, stack []ast.Node) bool) {
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if !fn(n, stack) {
			return false // pruned: Inspect sends no closing nil for n
		}
		stack = append(stack, n)
		return true
	})
}
