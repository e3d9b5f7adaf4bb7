package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// goroLeakPackages are the packages whose goroutines must have a provable
// stop path: the long-lived server-side subsystems. Simulation packages
// are excluded — their concurrency is the exp worker pool, which is
// join-bounded by construction and checked by the determinism harness.
var goroLeakPackages = []string{
	"cqjoin/internal/transport",
	"cqjoin/internal/daemon",
	"cqjoin/internal/engine",
}

// GoroLeakAnalyzer requires every `go` statement in the scoped packages
// to have a provable stop path: the spawned body (or, for named
// functions and methods, anything the callee chain reaches) must contain
// a WaitGroup Done, a select with a receive clause, a channel receive, or
// a range over a channel. Context cancellation counts through its
// `<-ctx.Done()` receive. Spawns that cannot be resolved (calling a
// function value from a variable) are reported — if the target cannot be
// named, its stop path cannot be proven. `//lint:allow goroleak <why>`
// is the escape hatch for intentionally unbounded goroutines.
var GoroLeakAnalyzer = &Analyzer{
	Name:   "goroleak",
	Doc:    "every go statement in transport, daemon and engine needs a provable stop path (Done pairing, select/receive, channel range)",
	Filter: goroLeakScope,
	Run:    runGoroLeak,
}

func goroLeakScope(pkgPath string) bool {
	for _, p := range goroLeakPackages {
		if pkgPath == p || strings.HasPrefix(pkgPath, p+"/") {
			return true
		}
	}
	return false
}

func runGoroLeak(pass *Pass) error {
	g := pass.Prog.CallGraph()
	info := pass.Pkg.Info
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			gs, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			switch fun := ast.Unparen(gs.Call.Fun).(type) {
			case *ast.FuncLit:
				if !closureHasStopPath(g, info, fun.Body) {
					pass.Reportf(gs.Pos(), "goroutine has no provable stop path (no WaitGroup Done, select/receive, or channel range in the spawned closure or its callees)")
				}
			default:
				fn := calleeFunc(info, gs.Call)
				if fn == nil {
					pass.Reportf(gs.Pos(), "goroutine target cannot be resolved statically; spawn a named function or method so its stop path can be checked")
					return true
				}
				if node := g.Node(fn); node == nil || !node.HasStopReach {
					pass.Reportf(gs.Pos(), "goroutine %s has no provable stop path (no WaitGroup Done, select/receive, or channel range in its body or callees)", fn.Name())
				}
			}
			return true
		})
	}
	return nil
}

// closureHasStopPath checks a spawned closure body directly: a stop
// marker anywhere inside (nested closures included — deferred closures
// run in the goroutine's extent), or a named callee whose summary
// reaches one.
func closureHasStopPath(g *CallGraph, info *types.Info, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.SelectStmt:
			for _, clause := range n.Body.List {
				if comm, ok := clause.(*ast.CommClause); ok && isReceiveComm(comm.Comm) {
					found = true
				}
			}
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				found = true
			}
		case *ast.RangeStmt:
			if tv, ok := info.Types[n.X]; ok {
				if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
					found = true
				}
			}
		case *ast.Ident:
			if fn, ok := info.Uses[n].(*types.Func); ok {
				if isStopMarkerFunc(fn) {
					found = true
				} else if node := g.Node(fn); node != nil && node.HasStopReach {
					found = true
				}
			}
		}
		return !found
	})
	return found
}
