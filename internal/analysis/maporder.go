package analysis

import (
	"go/ast"
	"go/types"
)

// orderSensitiveSinks are the built-in order-sensitive consumers besides
// the overlay sends in networkSends: anything whose observable output (wire
// bytes, hop ledger, notification order) depends on the order its inputs
// arrive in.
// Package-internal sinks are marked at their declaration with
// //cqlint:sink instead of being listed here.
var orderSensitiveSinks = map[string]bool{
	"cqjoin/internal/engine.EncodeMessage":   true,
	"cqjoin/internal/wire.Buffer.PutUvarint": true,
	"cqjoin/internal/wire.Buffer.PutVarint":  true,
	"cqjoin/internal/wire.Buffer.PutString":  true,

	// The leaves a walk method lists its fields through (wire.Coder): in
	// encoding mode each is a Put.
	"cqjoin/internal/wire.Coder.Uvarint":    true,
	"cqjoin/internal/wire.Coder.Int":        true,
	"cqjoin/internal/wire.Coder.Bool":       true,
	"cqjoin/internal/wire.Coder.Tag":        true,
	"cqjoin/internal/wire.Coder.Varint":     true,
	"cqjoin/internal/wire.Coder.String":     true,
	"cqjoin/internal/wire.Coder.Interned":   true,
	"cqjoin/internal/wire.Coder.Bytes":      true,
	"cqjoin/internal/wire.Coder.Value":      true,
	"cqjoin/internal/wire.Coder.Tuple":      true,
	"cqjoin/internal/wire.Coder.NamedTuple": true,
	"cqjoin/internal/wire.Coder.Query":      true,
	"cqjoin/internal/wire.Coder.Count":      true,
	"cqjoin/internal/wire.Coder.Strings":    true,
	"cqjoin/internal/wire.Coder.Tuples":     true,
	"cqjoin/internal/wire.Coder.Queries":    true,
	"cqjoin/internal/wire.Slice":            true,
	"cqjoin/internal/wire.MemberView.Walk":  true,
}

// MapOrderAnalyzer flags `range` statements over maps whose loop body
// feeds an order-sensitive sink directly: Go map iteration order is
// random, so such a loop leaks nondeterminism straight into wire traffic
// or notification order. The deterministic
// pattern is collect keys → sort → range the sorted slice (see
// engine/merge.go). The check is syntactic per loop body — calls made
// by functions the body invokes are not traced — so sinks reached through
// helpers should mark the helper itself with //cqlint:sink.
var MapOrderAnalyzer = &Analyzer{
	Name: "maporder",
	Doc:  "flag map iteration feeding wire encodes or sends without sorting",
	Run:  runMapOrder,
}

func runMapOrder(pass *Pass) error {
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			rng, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			tv, ok := pass.Pkg.Info.Types[rng.X]
			if !ok {
				return true
			}
			if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
				return true
			}
			ast.Inspect(rng.Body, func(inner ast.Node) bool {
				call, ok := inner.(*ast.CallExpr)
				if !ok {
					return true
				}
				fn := calleeFunc(pass.Pkg.Info, call)
				if fn == nil {
					return true
				}
				if k := funcKey(fn); networkSends[k] || orderSensitiveSinks[k] || pass.Prog.IsMarkedSink(fn) {
					pass.Reportf(call.Pos(), "%s called while ranging over a map: iteration order is random; collect keys, sort, then send", fn.Name())
				}
				return true
			})
			return true
		})
	}
	return nil
}
