package analysis

// LockOrderAnalyzer consumes the call graph's per-function lock summaries
// to report
//
//  1. sends under a lock — a chord overlay send or blocking transport
//     entry point called while a mutex acquired in the same function is
//     held, directly or through any chain of module functions (interface
//     dispatch included). This is the pipelining deadlock class: batch
//     handlers that called back into the overlay while holding a
//     connection lock head-of-line-cycled the in-order reply protocol
//     into timeouts.
//  2. lock-order cycles — an acquisition of class B while class A is
//     held (directly, or summarized through a callee) when B's holders
//     also, possibly transitively, acquire A.
//
// Lock classes are identified per struct field (clientConn.wmu is one
// class across every instance) or per variable. The summary arithmetic
// is branch-insensitive and clamps held counts at zero, so asymmetric
// helpers (transport's writeAndAwait releases its caller's lock) bias
// toward silence rather than noise.
var LockOrderAnalyzer = &Analyzer{
	Name: "lockorder",
	Doc:  "report overlay/transport sends under a held mutex, direct or down a call chain, and lock-order cycles",
	Run:  runLockOrder,
}

func runLockOrder(pass *Pass) error {
	g := pass.Prog.CallGraph()
	for _, f := range g.LockFindings(pass.Pkg) {
		pass.Reportf(f.pos, "%s", f.msg)
	}
	return nil
}
