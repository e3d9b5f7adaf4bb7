package analysis

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
)

// registryMethods are the obs.Registry registration entry points.
var registryMethods = map[string]bool{
	"cqjoin/internal/obs.Registry.Counter":    true,
	"cqjoin/internal/obs.Registry.Gauge":      true,
	"cqjoin/internal/obs.Registry.CounterVec": true,
}

// ObsRegisterAnalyzer enforces the metric-registration discipline:
//
//   - the metric name must be a compile-time constant, so the name space
//     of a run is closed and Snapshot keys are stable;
//   - registration must not sit inside a loop (Registry methods take a
//     registry-wide lock and intern by name — a registration in a hot loop
//     is a lock acquisition per iteration for a value that never changes);
//   - each metric name is registered at exactly one call site per package,
//     so a metric's meaning has a single owner.
var ObsRegisterAnalyzer = &Analyzer{
	Name: "obsregister",
	Doc:  "metric registration must use constant names, happen outside loops, once per package",
	Run:  runObsRegister,
}

func runObsRegister(pass *Pass) error {
	info := pass.Pkg.Info
	firstSite := make(map[string]token.Position) // metric name -> first registration site
	for _, f := range pass.Pkg.Files {
		walkStack(f, func(n ast.Node, stack []ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(info, call)
			if fn == nil || !registryMethods[funcKey(fn)] || len(call.Args) == 0 {
				return true
			}
			if loop := enclosingLoop(stack); loop != nil {
				pass.Reportf(call.Pos(), "metric registration inside a loop: register once (e.g. in the constructor) and reuse the handle")
			}
			nameVal := constStringValue(info, call.Args[0])
			if nameVal == "" {
				pass.Reportf(call.Args[0].Pos(), "metric name must be a constant string (stable snapshot and regression-gate keys)")
			} else {
				pos := pass.Fset.Position(call.Pos())
				if prev, dup := firstSite[nameVal]; dup {
					pass.Reportf(call.Pos(), "metric %q already registered at %s:%d; register each metric at one site per package", nameVal, prev.Filename, prev.Line)
				} else {
					firstSite[nameVal] = pos
				}
			}
			return true
		})
	}
	return nil
}

// enclosingLoop returns the innermost for/range ancestor within the same
// function, or nil.
func enclosingLoop(stack []ast.Node) ast.Node {
	for i := len(stack) - 1; i >= 0; i-- {
		switch stack[i].(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			return stack[i]
		case *ast.FuncDecl, *ast.FuncLit:
			return nil
		}
	}
	return nil
}

// constStringValue returns the compile-time string value of e, or "".
func constStringValue(info *types.Info, e ast.Expr) string {
	tv, ok := info.Types[e]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return ""
	}
	return constant.StringVal(tv.Value)
}
