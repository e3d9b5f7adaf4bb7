package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"maps"
	"sort"
	"strings"
)

// callgraph.go is lockorder: an intra-module call graph over every fully
// loaded package (the module or fixture packages — stdlib imports are
// signature-only and contribute no nodes), with a per-function summary of
// lock effects and send reachability, and the findings derived from them.
//
// The summaries are deliberately branch-insensitive: lock effects are the
// net sum of Lock/Unlock tokens in source order, so a function whose
// branches disagree (one path unlocks, another returns locked) summarizes
// to whichever direction releases more. Callers clamp the held count at
// zero, which biases every approximation toward fewer findings — the
// check is a gate, and a gate that cries wolf gets deleted. The one branch
// the walk does tell apart is one that ends in return: no statement after it
// runs in its lock state, so an early `mu.Unlock(); return` leaves the lock
// held for the rest of the function.

// networkSends are the overlay send entry points: each one can traverse
// O(log N) simulated hops, run delivery handlers on other nodes, and (in a
// socket deployment) block on the network. Holding a local mutex across
// one is a latency and deadlock hazard — delivery handlers may call back
// into the sending node.
var networkSends = map[string]bool{
	"cqjoin/internal/chord.Node.Send":               true,
	"cqjoin/internal/chord.Node.DirectSend":         true,
	"cqjoin/internal/chord.Node.SendHinted":         true,
	"cqjoin/internal/chord.Node.Multisend":          true,
	"cqjoin/internal/chord.Node.MultisendIterative": true,
}

// blockingTransportCalls are the internal/transport entry points that
// block on sockets (dial, frame write, ack wait). Together with the
// chord overlay sends in networkSends they form lockorder's sink set.
var blockingTransportCalls = map[string]bool{
	"cqjoin/internal/transport.TCP.Deliver":      true,
	"cqjoin/internal/transport.TCP.DeliverBatch": true,
	"cqjoin/internal/transport.TCP.SendJoin":     true,
	"cqjoin/internal/transport.TCP.SendView":     true,
}

func isBlockingSend(fn *types.Func) bool {
	k := funcKey(fn)
	return networkSends[k] || blockingTransportCalls[k]
}

// FuncNode is one declared function or method with a body, plus the
// summary facts lockorder consumes.
type FuncNode struct {
	Fn   *types.Func
	Decl *ast.FuncDecl
	Pkg  *Package

	// NetLocks is the net Lock/Unlock count per lock class over the
	// body in source order (deferred unlocks included, closure bodies
	// excluded). A lock-balanced function nets zero; a function that
	// releases a caller-held lock (transport's writeAndAwait) nets
	// negative.
	NetLocks map[types.Object]int
	// Acquires are the lock classes this body locks directly.
	Acquires map[types.Object]bool
	// TransitiveAcquires adds every class any callee chain acquires.
	TransitiveAcquires map[types.Object]bool

	// DirectSend marks a body that calls a blocking send sink itself;
	// ReachesSend adds sends reached through callees. sendHop/sendSink
	// remember one representative path for diagnostics.
	DirectSend  bool
	ReachesSend bool
	sendHop     *FuncNode
	sendSink    *types.Func

	calls     []*FuncNode // resolved calls outside closure bodies
	valueRefs []*FuncNode // method/function values referenced, not called
	guarded   []guardedCall
}

// guardedCall is a resolved call made while at least one lock class
// acquired in the same function is still held. targets carries the
// graph nodes the call can reach (several, for interface dispatch).
type guardedCall struct {
	pos     token.Pos
	fn      *types.Func
	targets []*FuncNode
	held    []types.Object
}

// Callees returns every function this node references outside closure
// bodies (calls, deferred calls and method values), deduplicated, in
// funcKey order.
func (n *FuncNode) Callees() []*FuncNode {
	seen := make(map[*FuncNode]bool)
	var out []*FuncNode
	for _, group := range [][]*FuncNode{n.calls, n.valueRefs} {
		for _, c := range group {
			if !seen[c] {
				seen[c] = true
				out = append(out, c)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return funcKey(out[i].Fn) < funcKey(out[j].Fn) })
	return out
}

// CalleeKeys renders Callees as funcKey strings (test helper).
func (n *FuncNode) CalleeKeys() []string {
	callees := n.Callees()
	keys := make([]string, len(callees))
	for i, c := range callees {
		keys[i] = funcKey(c.Fn)
	}
	return keys
}

// NetLockNames renders NetLocks keyed by display name (test helper).
func (n *FuncNode) NetLockNames(g *CallGraph) map[string]int {
	out := make(map[string]int, len(n.NetLocks))
	for obj, net := range n.NetLocks {
		out[g.LockName(obj)] = net
	}
	return out
}

// TransitiveAcquireNames renders TransitiveAcquires as sorted display
// names (test helper).
func (n *FuncNode) TransitiveAcquireNames(g *CallGraph) []string {
	out := make([]string, 0, len(n.TransitiveAcquires))
	for obj := range n.TransitiveAcquires {
		out = append(out, g.LockName(obj))
	}
	sort.Strings(out)
	return out
}

// Finding is one lockorder report, positioned in the loader's FileSet.
type Finding struct {
	Pos     token.Pos
	Message string
}

// lockEdge records "to was acquired while from was held" with the
// acquisition (or summary-carrying call) that created it.
type lockEdge struct {
	from, to types.Object
	pos      token.Pos
}

// CallGraph is the whole-program graph plus the lockorder facts derived
// from it.
type CallGraph struct {
	nodes    map[*types.Func]*FuncNode
	ordered  []*FuncNode // deterministic iteration order
	lockName map[types.Object]string

	edges      []lockEdge
	edgeSet    map[[2]types.Object]bool
	findings   []Finding
	ifaceImpls map[*types.Func][]*FuncNode // interface method -> implementations
}

// NodeByKey looks a node up by its funcKey ("pkgpath.Recv.Name").
func (g *CallGraph) NodeByKey(key string) *FuncNode {
	for _, n := range g.ordered {
		if funcKey(n.Fn) == key {
			return n
		}
	}
	return nil
}

// LockName is the human display name of a lock class: "clientConn.wmu"
// for struct fields, the variable name otherwise.
func (g *CallGraph) LockName(obj types.Object) string {
	if name, ok := g.lockName[obj]; ok {
		return name
	}
	return obj.Name()
}

// NewCallGraph builds the graph over every package l has fully loaded and
// derives lockorder's findings from it.
func NewCallGraph(l *Loader) *CallGraph {
	g := &CallGraph{
		nodes:    make(map[*types.Func]*FuncNode),
		lockName: make(map[types.Object]string),
		edgeSet:  make(map[[2]types.Object]bool),
	}
	pkgs := l.FullPackages()

	// Nodes: every declared function or method with a body.
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				g.nodes[fn] = &FuncNode{
					Fn: fn, Decl: fd, Pkg: pkg,
					NetLocks:           make(map[types.Object]int),
					Acquires:           make(map[types.Object]bool),
					TransitiveAcquires: make(map[types.Object]bool),
				}
				g.ordered = append(g.ordered, g.nodes[fn])
			}
		}
	}
	sort.Slice(g.ordered, func(i, j int) bool {
		return g.ordered[i].Fn.Pos() < g.ordered[j].Fn.Pos()
	})

	g.resolveInterfaces(pkgs)
	for _, n := range g.ordered {
		g.summarizeBody(n)
	}
	g.fixpoint()
	g.deriveLockDiags()
	return g
}

// resolveInterfaces precomputes class-hierarchy dispatch targets, but only
// for interfaces declared in analyzed packages (chord.Transport,
// transport.Codec, ...). Stdlib interfaces (io.Writer et al) would fan
// out to every buffer in the module and drown the summaries in noise.
func (g *CallGraph) resolveInterfaces(pkgs []*Package) {
	g.ifaceImpls = make(map[*types.Func][]*FuncNode)
	var ifaces []*types.Named
	var concretes []*types.Named
	for _, pkg := range pkgs {
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			if iface, ok := named.Underlying().(*types.Interface); ok {
				if iface.NumMethods() > 0 {
					ifaces = append(ifaces, named)
				}
				continue
			}
			concretes = append(concretes, named)
		}
	}
	for _, iface := range ifaces {
		it := iface.Underlying().(*types.Interface)
		for _, impl := range concretes {
			recv := types.Type(impl)
			if !types.Implements(recv, it) {
				recv = types.NewPointer(impl)
				if !types.Implements(recv, it) {
					continue
				}
			}
			for i := 0; i < it.NumMethods(); i++ {
				m := it.Method(i)
				obj, _, _ := types.LookupFieldOrMethod(recv, true, impl.Obj().Pkg(), m.Name())
				if concrete, ok := obj.(*types.Func); ok {
					if node := g.nodes[concrete]; node != nil {
						g.ifaceImpls[m] = append(g.ifaceImpls[m], node)
					}
				}
			}
		}
	}
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

// mutexClass resolves the lock-class object of a sync.(RW)Mutex method
// call: the struct-field object for x.mu.Lock() (unique per named type
// and field), the variable object for mu.Lock(). Returns nil and 0 for
// non-mutex calls; delta is +1 for Lock/RLock, -1 for Unlock/RUnlock.
func (g *CallGraph) mutexClass(info *types.Info, call *ast.CallExpr) (types.Object, int) {
	delta := mutexMethod(info, call)
	if delta == 0 {
		return nil, 0
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil, 0
	}
	var obj types.Object
	switch recv := ast.Unparen(sel.X).(type) {
	case *ast.Ident:
		obj = info.Uses[recv]
	case *ast.SelectorExpr:
		obj = info.Uses[recv.Sel]
		if obj != nil {
			if _, known := g.lockName[obj]; !known {
				if tv, ok := info.Types[recv.X]; ok {
					g.lockName[obj] = namedTypeName(tv.Type) + "." + obj.Name()
				}
			}
		}
	}
	if obj == nil {
		return nil, 0
	}
	return obj, delta
}

// namedTypeName strips pointers and renders the named type's bare name.
func namedTypeName(t types.Type) string {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return t.String()
}

// resolveCallees expands one call expression to its possible targets:
// the statically resolved function, plus every module-declared
// implementation when the static target is an interface method.
func (g *CallGraph) resolveCallees(info *types.Info, call *ast.CallExpr) (*types.Func, []*FuncNode) {
	fn := calleeFunc(info, call)
	if fn == nil {
		return nil, nil
	}
	sig, ok := fn.Type().(*types.Signature)
	if ok && sig.Recv() != nil && types.IsInterface(sig.Recv().Type()) {
		return fn, g.ifaceImpls[fn]
	}
	if node := g.nodes[fn]; node != nil {
		return fn, []*FuncNode{node}
	}
	return fn, nil
}

// summarizeBody runs the single source-order walk that fills a node's
// direct facts: lock effects, guarded calls, call edges and lock-order
// edges for acquisitions made while another class is held.
func (g *CallGraph) summarizeBody(n *FuncNode) {
	info := n.Pkg.Info
	held := make(map[types.Object]int)
	pinned := make(map[types.Object]bool)
	heldSnapshot := func() []types.Object {
		var out []types.Object
		for obj, count := range held {
			if count > 0 {
				out = append(out, obj)
			}
		}
		sort.Slice(out, func(i, j int) bool {
			if out[i].Name() != out[j].Name() {
				return out[i].Name() < out[j].Name()
			}
			return out[i].Pos() < out[j].Pos()
		})
		return out
	}

	// A branch that ends in return hands its lock state to no statement
	// after it: past its end, held is what it was where the branch began.
	type restore struct {
		end  token.Pos
		held map[types.Object]int
	}
	var branches []restore
	walkStack(n.Decl.Body, func(node ast.Node, stack []ast.Node) bool {
		for len(branches) > 0 && node.Pos() >= branches[len(branches)-1].end {
			held = branches[len(branches)-1].held
			branches = branches[:len(branches)-1]
		}
		if body := branchBody(node); len(body) > 0 {
			if _, ok := body[len(body)-1].(*ast.ReturnStmt); ok {
				branches = append(branches, restore{end: node.End(), held: maps.Clone(held)})
			}
		}
		inClosure := false
		for _, anc := range stack {
			if _, ok := anc.(*ast.FuncLit); ok {
				inClosure = true
				break
			}
		}
		switch node := node.(type) {
		case *ast.Ident:
			if fn, ok := info.Uses[node].(*types.Func); ok {
				if callee := g.nodes[fn]; callee != nil {
					n.valueRefs = append(n.valueRefs, callee)
				}
			}
		case *ast.CallExpr:
			deferred := len(stack) > 0 && isDeferOf(stack[len(stack)-1], node)
			fn, targets := g.resolveCallees(info, node)
			if obj, delta := g.mutexClass(info, node); obj != nil {
				if inClosure {
					return true // a closure's lock discipline is its own
				}
				n.NetLocks[obj] += delta
				if delta > 0 {
					n.Acquires[obj] = true
					if !deferred {
						for _, h := range heldSnapshot() {
							if h != obj {
								g.addEdge(h, obj, node.Pos())
							}
						}
						held[obj]++
					}
				} else if deferred {
					pinned[obj] = true
				} else if !pinned[obj] && held[obj] > 0 {
					held[obj]--
				}
				return true
			}
			if fn == nil || inClosure {
				return true
			}
			n.calls = append(n.calls, targets...)
			if !deferred {
				if snapshot := heldSnapshot(); len(snapshot) > 0 {
					n.guarded = append(n.guarded, guardedCall{pos: node.Pos(), fn: fn, targets: targets, held: snapshot})
				}
			}
			if isBlockingSend(fn) {
				n.DirectSend = true
				if n.sendSink == nil {
					n.sendSink = fn
				}
			}
		}
		return true
	})
	for obj := range n.Acquires {
		n.TransitiveAcquires[obj] = true
	}
}

// branchBody returns the statements of a block or a case clause, nil for any
// other node.
func branchBody(node ast.Node) []ast.Stmt {
	switch node := node.(type) {
	case *ast.BlockStmt:
		return node.List
	case *ast.CaseClause:
		return node.Body
	case *ast.CommClause:
		return node.Body
	}
	return nil
}

// isDeferOf reports whether parent is a DeferStmt whose call is exactly
// this expression (as opposed to a call nested in a deferred call's
// arguments).
func isDeferOf(parent ast.Node, call *ast.CallExpr) bool {
	d, ok := parent.(*ast.DeferStmt)
	return ok && d.Call == call
}

// fixpoint propagates TransitiveAcquires and ReachesSend over the call
// edges until nothing changes. Recursion terminates because every fact
// only ever grows.
func (g *CallGraph) fixpoint() {
	for _, n := range g.ordered {
		n.ReachesSend = n.DirectSend
	}
	for changed := true; changed; {
		changed = false
		for _, n := range g.ordered {
			for _, c := range n.calls {
				for obj := range c.TransitiveAcquires {
					if !n.TransitiveAcquires[obj] {
						n.TransitiveAcquires[obj] = true
						changed = true
					}
				}
				if !n.ReachesSend && c.ReachesSend {
					n.ReachesSend = true
					n.sendHop = c
					changed = true
				}
			}
		}
	}
}

// sendPath renders the representative call chain from n to its blocking
// send for diagnostics: "a -> b -> chord.Node.Send".
func (n *FuncNode) sendPath() string {
	var parts []string
	cur := n
	for depth := 0; cur != nil && depth < 32; depth++ {
		parts = append(parts, funcKey(cur.Fn))
		if cur.DirectSend {
			if cur.sendSink != nil {
				parts = append(parts, funcKey(cur.sendSink))
			}
			break
		}
		cur = cur.sendHop
	}
	return strings.Join(parts, " -> ")
}

func (g *CallGraph) addEdge(from, to types.Object, pos token.Pos) {
	key := [2]types.Object{from, to}
	if from == to || g.edgeSet[key] {
		return
	}
	g.edgeSet[key] = true
	g.edges = append(g.edges, lockEdge{from: from, to: to, pos: pos})
}

// deriveLockDiags materializes lockorder's findings now that the
// fixpoint is known: transitive sends under held locks, summary-derived
// lock-order edges, and cycles over the class graph.
func (g *CallGraph) deriveLockDiags() {
	report := func(pos token.Pos, format string, args ...any) {
		g.findings = append(g.findings, Finding{Pos: pos, Message: fmt.Sprintf(format, args...)})
	}
	for _, n := range g.ordered {
		for _, gc := range n.guarded {
			heldNames := make([]string, len(gc.held))
			for i, obj := range gc.held {
				heldNames[i] = g.LockName(obj)
			}
			heldText := strings.Join(heldNames, ", ")
			if isBlockingSend(gc.fn) {
				report(gc.pos, "%s blocks on the overlay/transport while mutex %s is held; release it before sending", gc.fn.Name(), heldText)
			} else {
				for _, target := range gc.targets {
					if target.ReachesSend {
						report(gc.pos, "call to %s reaches a blocking send (%s) while mutex %s is held; release it before sending", gc.fn.Name(), target.sendPath(), heldText)
						break
					}
				}
			}
			for _, target := range gc.targets {
				for obj := range target.TransitiveAcquires {
					for _, h := range gc.held {
						g.addEdge(h, obj, gc.pos)
					}
				}
			}
		}
	}

	// Cycle detection: an edge A->B closes a cycle iff B reaches A.
	adj := make(map[types.Object][]types.Object)
	for _, e := range g.edges {
		adj[e.from] = append(adj[e.from], e.to)
	}
	reaches := func(from, to types.Object) bool {
		seen := map[types.Object]bool{from: true}
		stack := []types.Object{from}
		for len(stack) > 0 {
			cur := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if cur == to {
				return true
			}
			for _, next := range adj[cur] {
				if !seen[next] {
					seen[next] = true
					stack = append(stack, next)
				}
			}
		}
		return false
	}
	for _, e := range g.edges {
		if reaches(e.to, e.from) {
			report(e.pos, "acquiring %s while %s is held closes a lock-order cycle (%s is also acquired, possibly transitively, under %s)",
				g.LockName(e.to), g.LockName(e.from), g.LockName(e.from), g.LockName(e.to))
		}
	}
	sort.Slice(g.findings, func(i, j int) bool { return g.findings[i].Pos < g.findings[j].Pos })
}

// Findings returns lockorder's findings in position order:
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
// class across every instance) or per variable.
func (g *CallGraph) Findings() []Finding { return g.findings }

// funcKey renders a *types.Func as "pkgpath.Name" for package functions or
// "pkgpath.Recv.Name" for methods (pointerness of the receiver ignored),
// the form the send tables use.
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
