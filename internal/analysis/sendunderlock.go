package analysis

import (
	"go/ast"
	"go/types"
)

// networkSends are the overlay send entry points: each one can traverse
// O(log N) simulated hops, run delivery handlers on other nodes, and (in a
// socket deployment) block on the network. Holding a local mutex across
// one is a latency and deadlock hazard — delivery handlers may call back
// into the sending node. maporder and lockorder read the same list.
var networkSends = map[string]bool{
	"cqjoin/internal/chord.Node.Send":               true,
	"cqjoin/internal/chord.Node.DirectSend":         true,
	"cqjoin/internal/chord.Node.SendHinted":         true,
	"cqjoin/internal/chord.Node.Multisend":          true,
	"cqjoin/internal/chord.Node.MultisendIterative": true,
}

// SendUnderLockAnalyzer reports chord send calls made while a
// sync.Mutex/RWMutex locked in the same function is still held. The
// tracking is a source-order walk of the function body (the standard
// lock/unlock discipline in this tree is strictly linear): Lock/RLock
// raises the held count, Unlock/RUnlock lowers it, and a deferred unlock
// pins the lock for the remainder of the function. Sends made by callees
// of the function are not traced.
var SendUnderLockAnalyzer = &Analyzer{
	Name: "sendunderlock",
	Doc:  "report chord.Send/DirectSend/SendHinted/Multisend/MultisendIterative while a mutex acquired in the same function is held",
	Run:  runSendUnderLock,
}

// mutexMethod classifies a call as a lock or unlock on sync.Mutex or
// sync.RWMutex, returning +1 for acquisitions, -1 for releases, 0 for
// anything else.
func mutexMethod(info *types.Info, call *ast.CallExpr) int {
	fn := calleeFunc(info, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return 0
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return 0
	}
	switch fn.Name() {
	case "Lock", "RLock":
		return +1
	case "Unlock", "RUnlock":
		return -1
	}
	return 0
}

func runSendUnderLock(pass *Pass) error {
	info := pass.Pkg.Info
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			held := 0
			deferred := false
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.FuncLit:
					return false // its body runs later, under its own discipline
				case *ast.DeferStmt:
					if mutexMethod(info, n.Call) == -1 {
						deferred = true
					}
					return false // the deferred call itself runs at exit
				case *ast.CallExpr:
					switch mutexMethod(info, n) {
					case +1:
						held++
					case -1:
						if held > 0 {
							held--
						}
					default:
						fn := calleeFunc(info, n)
						if fn == nil {
							return true
						}
						if (networkSends[funcKey(fn)] || pass.Prog.IsMarkedSink(fn)) && (held > 0 || deferred) {
							pass.Reportf(n.Pos(), "%s called while a mutex locked in this function is still held; release the lock before sending", fn.Name())
						}
					}
				}
				return true
			})
		}
	}
	return nil
}
