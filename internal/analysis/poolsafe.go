package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// PoolSafeAnalyzer enforces the pooled-object hygiene the zero-alloc hot
// paths depend on. For every package-level sync.Pool it checks:
//
//  1. accessor discipline — at most one function calls <pool>.Get and at
//     most one calls <pool>.Put. Scattered Get/Put sites are how reset
//     and ownership bugs creep in; every other caller routes through the
//     accessor pair.
//  2. reset coverage — if the pooled type has a Reset method, the get or
//     put accessor must call it, so a recycled object can never leak a
//     previous life.
//  3. use-after-Put / double-Put — within a function, a variable that
//     was released (directly, via a put accessor, or via a method that
//     puts its own receiver) must not be used or released again on the
//     same straight-line path. Branches fork the tracking state; a branch
//     that returns keeps its releases to itself.
//  4. retained aliases — returning a pooled variable (or a slice of it)
//     while a deferred Put of that variable is pending hands the caller
//     a buffer the pool is about to recycle; copy it out instead.
//
// The tree's one package-level pool is chord's runScratch; every other
// buffer belongs to the connection, slot or worker it serves.
var PoolSafeAnalyzer = &Analyzer{
	Name: "poolsafe",
	Doc:  "sync.Pool hygiene: single Get/Put accessors, reset coverage, use-after-Put, double Put, and escaping aliases of pooled buffers",
	Run:  runPoolSafe,
}

// poolFacts carries the per-package information the rules share.
type poolFacts struct {
	pass  *Pass
	pools map[types.Object]bool // package-level sync.Pool vars
	// putAccessors maps a function object to the pool it Puts into;
	// getAccessors likewise for Get. Filled by rule 1's site scan.
	putAccessors map[types.Object]types.Object
	getAccessors map[types.Object]types.Object
	// releasers are functions/methods a call to which releases one of
	// the caller's variables: put accessors release their first ident
	// argument, receiver-releasing methods release their receiver.
	releaserParam map[types.Object]bool // fn obj -> releases ident argument
	releaserRecv  map[types.Object]bool // method obj -> releases receiver
}

func runPoolSafe(pass *Pass) error {
	facts := &poolFacts{
		pass:          pass,
		pools:         make(map[types.Object]bool),
		putAccessors:  make(map[types.Object]types.Object),
		getAccessors:  make(map[types.Object]types.Object),
		releaserParam: make(map[types.Object]bool),
		releaserRecv:  make(map[types.Object]bool),
	}
	scope := pass.Pkg.Types.Scope()
	for _, name := range scope.Names() {
		v, ok := scope.Lookup(name).(*types.Var)
		if ok && isSyncPoolType(v.Type()) {
			facts.pools[v] = true
		}
	}
	if len(facts.pools) == 0 {
		return nil
	}
	facts.checkAccessors()
	facts.checkReset()
	facts.resolveReleasers()
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				facts.checkFuncBody(fd)
			}
		}
	}
	return nil
}

func isSyncPoolType(t types.Type) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Pkg() != nil &&
		named.Obj().Pkg().Path() == "sync" && named.Obj().Name() == "Pool"
}

// poolMethodCall matches <pool>.Get() / <pool>.Put(x) on a tracked pool
// var, returning the pool object and the method name.
func (pf *poolFacts) poolMethodCall(call *ast.CallExpr) (pool types.Object, method string) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || (sel.Sel.Name != "Get" && sel.Sel.Name != "Put") {
		return nil, ""
	}
	var base types.Object
	switch x := ast.Unparen(sel.X).(type) {
	case *ast.Ident:
		base = pf.pass.Pkg.Info.Uses[x]
	case *ast.SelectorExpr:
		base = pf.pass.Pkg.Info.Uses[x.Sel]
	}
	if base == nil || !pf.pools[base] {
		return nil, ""
	}
	return base, sel.Sel.Name
}

// poolSite is one Get or Put call with its enclosing function.
type poolSite struct {
	call *ast.CallExpr
	fn   *ast.FuncDecl
}

// checkAccessors implements rule 1 and records the accessor functions
// rules 2 and 3 build on.
func (pf *poolFacts) checkAccessors() {
	gets := make(map[types.Object][]poolSite)
	puts := make(map[types.Object][]poolSite)
	for _, f := range pf.pass.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if pool, method := pf.poolMethodCall(call); pool != nil {
					site := poolSite{call: call, fn: fd}
					if method == "Get" {
						gets[pool] = append(gets[pool], site)
					} else {
						puts[pool] = append(puts[pool], site)
					}
				}
				return true
			})
		}
	}
	info := pf.pass.Pkg.Info
	report := func(sites []poolSite, pool types.Object, method string) {
		accessor := sites[0].fn
		if obj := info.Defs[accessor.Name]; obj != nil {
			if method == "Get" {
				pf.getAccessors[obj] = pool
			} else {
				pf.putAccessors[obj] = pool
			}
		}
		for _, s := range sites[1:] {
			if s.fn != accessor {
				pf.pass.Reportf(s.call.Pos(), "%s.%s called in %s; route every %s through the single accessor %s",
					pool.Name(), method, s.fn.Name.Name, method, accessor.Name.Name)
			}
		}
	}
	for pool := range pf.pools {
		if sites := gets[pool]; len(sites) > 0 {
			report(sites, pool, "Get")
		}
		if sites := puts[pool]; len(sites) > 0 {
			report(sites, pool, "Put")
		}
	}
}

// checkReset implements rule 2: a pooled type with a Reset method must
// have it called by the get or put accessor.
func (pf *poolFacts) checkReset() {
	info := pf.pass.Pkg.Info
	for _, f := range pf.pass.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fnObj := info.Defs[fd.Name]
			pool, isPut := pf.putAccessors[fnObj]
			if !isPut {
				continue
			}
			pooled := pf.putArgType(fd)
			if pooled == nil || !hasResetMethod(pooled) {
				continue
			}
			get := pf.accessorDeclFor(pool, pf.getAccessors)
			if callsMethodNamed(fd.Body, "Reset") || (get != nil && callsMethodNamed(get.Body, "Reset")) {
				continue
			}
			pf.pass.Reportf(fd.Pos(), "pooled type %s has a Reset method but neither the Get nor the Put accessor of %s calls it; a recycled object can leak its previous contents",
				pooled.String(), pool.Name())
		}
	}
}

// putArgType returns the static type of the value this put accessor
// hands to <pool>.Put, pointers dereferenced.
func (pf *poolFacts) putArgType(fd *ast.FuncDecl) types.Type {
	var t types.Type
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || t != nil {
			return t == nil
		}
		if pool, method := pf.poolMethodCall(call); pool != nil && method == "Put" && len(call.Args) == 1 {
			if tv, ok := pf.pass.Pkg.Info.Types[call.Args[0]]; ok {
				t = tv.Type
			}
		}
		return true
	})
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	return t
}

func hasResetMethod(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	ms := types.NewMethodSet(types.NewPointer(named))
	for i := 0; i < ms.Len(); i++ {
		if ms.At(i).Obj().Name() == "Reset" {
			return true
		}
	}
	return false
}

func callsMethodNamed(body *ast.BlockStmt, name string) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && sel.Sel.Name == name {
				found = true
			}
		}
		return !found
	})
	return found
}

// accessorDeclFor finds the FuncDecl registered as pool's accessor in m.
func (pf *poolFacts) accessorDeclFor(pool types.Object, m map[types.Object]types.Object) *ast.FuncDecl {
	info := pf.pass.Pkg.Info
	for _, f := range pf.pass.Pkg.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok {
				if obj := info.Defs[fd.Name]; obj != nil && m[obj] == pool {
					return fd
				}
			}
		}
	}
	return nil
}

// resolveReleasers computes which package functions release a caller
// variable when called: put accessors release their ident argument, and
// methods whose body releases their own receiver (call.finish) release
// the receiver. Runs to a small fixpoint so a method delegating to
// another releaser is caught too.
func (pf *poolFacts) resolveReleasers() {
	info := pf.pass.Pkg.Info
	for obj := range pf.putAccessors {
		pf.releaserParam[obj] = true
	}
	for changed := true; changed; {
		changed = false
		for _, f := range pf.pass.Pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil || fd.Recv == nil || len(fd.Recv.List) == 0 || len(fd.Recv.List[0].Names) == 0 {
					continue
				}
				obj := info.Defs[fd.Name]
				if obj == nil || pf.releaserRecv[obj] {
					continue
				}
				recvObj := info.Defs[fd.Recv.List[0].Names[0]]
				if recvObj == nil {
					continue
				}
				released := false
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					if call, ok := n.(*ast.CallExpr); ok {
						if target := pf.releaseTarget(call); target == recvObj {
							released = true
						}
					}
					return !released
				})
				if released {
					pf.releaserRecv[obj] = true
					changed = true
				}
			}
		}
	}
}

// releaseTarget returns the variable object a call releases, or nil:
// <pool>.Put(v), putAccessor(v), or v.releasingMethod().
func (pf *poolFacts) releaseTarget(call *ast.CallExpr) types.Object {
	info := pf.pass.Pkg.Info
	if pool, method := pf.poolMethodCall(call); pool != nil && method == "Put" {
		if len(call.Args) == 1 {
			if id, ok := ast.Unparen(call.Args[0]).(*ast.Ident); ok {
				return info.Uses[id]
			}
		}
		return nil
	}
	fn := calleeFunc(info, call)
	if fn == nil {
		return nil
	}
	if pf.releaserParam[fn] && len(call.Args) >= 1 {
		if id, ok := ast.Unparen(call.Args[0]).(*ast.Ident); ok {
			return info.Uses[id]
		}
		return nil
	}
	if pf.releaserRecv[fn] {
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			if id, ok := ast.Unparen(sel.X).(*ast.Ident); ok {
				return info.Uses[id]
			}
		}
	}
	return nil
}

// poolTrack is the per-path tracking state for rules 3 and 4.
type poolTrack struct {
	released map[types.Object]token.Pos
	deferred map[types.Object]bool
}

func newPoolTrack() *poolTrack {
	return &poolTrack{released: make(map[types.Object]token.Pos), deferred: make(map[types.Object]bool)}
}

func (t *poolTrack) clone() *poolTrack {
	c := newPoolTrack()
	for k, v := range t.released {
		c.released[k] = v
	}
	for k, v := range t.deferred {
		c.deferred[k] = v
	}
	return c
}

// checkFuncBody implements rules 3 and 4 over one function.
func (pf *poolFacts) checkFuncBody(fd *ast.FuncDecl) {
	pf.walkStmts(fd.Body.List, newPoolTrack())
}

func (pf *poolFacts) walkStmts(stmts []ast.Stmt, st *poolTrack) {
	for _, stmt := range stmts {
		pf.walkStmt(stmt, st)
	}
}

func (pf *poolFacts) walkStmt(stmt ast.Stmt, st *poolTrack) {
	switch s := stmt.(type) {
	case *ast.BlockStmt:
		pf.walkStmts(s.List, st)
	case *ast.IfStmt:
		if s.Init != nil {
			pf.walkStmt(s.Init, st)
		}
		pf.checkUses(s.Cond, st, nil)
		body := st.clone()
		pf.walkStmts(s.Body.List, body)
		var elseSt *poolTrack
		if s.Else != nil {
			elseSt = st.clone()
			pf.walkStmt(s.Else, elseSt)
		}
		// A branch that falls through propagates its releases; one that
		// returns keeps them to itself.
		if !terminates(s.Body.List) {
			for k, v := range body.released {
				st.released[k] = v
			}
		}
		if elseSt != nil {
			for k, v := range elseSt.released {
				st.released[k] = v
			}
		}
	case *ast.ForStmt, *ast.RangeStmt, *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt, *ast.LabeledStmt:
		// Loop and multi-way bodies fork the state and do not propagate
		// out: cross-iteration and cross-clause aliasing is out of scope
		// for the straight-line rule (conservative silence).
		pf.walkCompound(stmt, st)
	case *ast.DeferStmt:
		pf.noteDeferred(s, st)
	case *ast.AssignStmt:
		for _, rhs := range s.Rhs {
			pf.checkUses(rhs, st, nil)
		}
		info := pf.pass.Pkg.Info
		for _, lhs := range s.Lhs {
			if id, ok := lhs.(*ast.Ident); ok {
				var obj types.Object
				if s.Tok == token.DEFINE {
					obj = info.Defs[id]
				} else {
					obj = info.Uses[id]
				}
				if obj != nil {
					delete(st.released, obj) // reassigned: a fresh object now
				}
			} else {
				pf.checkUses(lhs, st, nil)
			}
		}
	case *ast.ReturnStmt:
		for _, res := range s.Results {
			pf.checkRetainedAlias(res, st)
			pf.checkUses(res, st, nil)
		}
	case *ast.ExprStmt:
		pf.checkReleasingExpr(s.X, st)
	case *ast.GoStmt:
		pf.checkUses(s.Call, st, nil)
	case *ast.DeclStmt, *ast.IncDecStmt, *ast.SendStmt, *ast.BranchStmt, *ast.EmptyStmt:
		pf.checkUses(stmt, st, nil)
	default:
		pf.checkUses(stmt, st, nil)
	}
}

// walkCompound forks the state into each nested statement list of a
// loop/switch/select and discards the forks.
func (pf *poolFacts) walkCompound(stmt ast.Stmt, st *poolTrack) {
	switch s := stmt.(type) {
	case *ast.ForStmt:
		pf.walkStmts(s.Body.List, st.clone())
	case *ast.RangeStmt:
		pf.checkUses(s.X, st, nil)
		pf.walkStmts(s.Body.List, st.clone())
	case *ast.SwitchStmt:
		pf.checkUses(s.Tag, st, nil)
		for _, clause := range s.Body.List {
			if cc, ok := clause.(*ast.CaseClause); ok {
				pf.walkStmts(cc.Body, st.clone())
			}
		}
	case *ast.TypeSwitchStmt:
		for _, clause := range s.Body.List {
			if cc, ok := clause.(*ast.CaseClause); ok {
				pf.walkStmts(cc.Body, st.clone())
			}
		}
	case *ast.SelectStmt:
		for _, clause := range s.Body.List {
			if cc, ok := clause.(*ast.CommClause); ok {
				pf.walkStmts(cc.Body, st.clone())
			}
		}
	case *ast.LabeledStmt:
		pf.walkStmt(s.Stmt, st)
	}
}

// noteDeferred records pending deferred releases for the retained-alias
// rule; a deferred Put does not mark the variable released on the
// straight-line path (it runs at function exit).
func (pf *poolFacts) noteDeferred(s *ast.DeferStmt, st *poolTrack) {
	mark := func(call *ast.CallExpr) {
		if obj := pf.releaseTarget(call); obj != nil {
			st.deferred[obj] = true
		}
	}
	mark(s.Call)
	if lit, ok := ast.Unparen(s.Call.Fun).(*ast.FuncLit); ok {
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				mark(call)
			}
			return true
		})
	}
}

// checkReleasingExpr processes an expression statement: double-Put on an
// already-released variable, plain uses, then the release marking.
func (pf *poolFacts) checkReleasingExpr(expr ast.Expr, st *poolTrack) {
	var released types.Object
	var relPos token.Pos
	if call, ok := ast.Unparen(expr).(*ast.CallExpr); ok {
		if obj := pf.releaseTarget(call); obj != nil {
			released = obj
			relPos = call.Pos()
		}
	}
	if released != nil {
		if _, dead := st.released[released]; dead {
			pf.pass.Reportf(relPos, "pooled %s is released twice on this path (double Put corrupts the pool: two goroutines can Get the same object)", released.Name())
			return
		}
		pf.checkUses(expr, st, released)
		st.released[released] = relPos
		return
	}
	pf.checkUses(expr, st, nil)
}

// checkUses reports any use of a released pooled variable inside n,
// skipping closure interiors (they run on their own schedule) and the
// variable currently being released.
func (pf *poolFacts) checkUses(n ast.Node, st *poolTrack, releasing types.Object) {
	if n == nil || len(st.released) == 0 {
		return
	}
	info := pf.pass.Pkg.Info
	reported := false
	ast.Inspect(n, func(node ast.Node) bool {
		if reported {
			return false
		}
		if _, ok := node.(*ast.FuncLit); ok {
			return false
		}
		id, ok := node.(*ast.Ident)
		if !ok {
			return true
		}
		obj := info.Uses[id]
		if obj == nil || obj == releasing {
			return true
		}
		if _, dead := st.released[obj]; dead {
			pf.pass.Reportf(id.Pos(), "pooled %s used after Put; the pool may already have handed it to another goroutine", obj.Name())
			reported = true
		}
		return true
	})
}

// checkRetainedAlias implements rule 4 on one return result.
func (pf *poolFacts) checkRetainedAlias(res ast.Expr, st *poolTrack) {
	if len(st.deferred) == 0 {
		return
	}
	info := pf.pass.Pkg.Info
	var id *ast.Ident
	switch e := ast.Unparen(res).(type) {
	case *ast.Ident:
		id = e
	case *ast.SliceExpr:
		if base, ok := ast.Unparen(e.X).(*ast.Ident); ok {
			id = base
		}
	}
	if id == nil {
		return
	}
	if obj := info.Uses[id]; obj != nil && st.deferred[obj] {
		pf.pass.Reportf(res.Pos(), "returning pooled %s while a deferred Put of it is pending; copy the bytes out before returning (the pool will recycle the buffer)", obj.Name())
	}
}

// terminates reports whether a statement list definitely ends the
// enclosing function (return or panic).
func terminates(stmts []ast.Stmt) bool {
	if len(stmts) == 0 {
		return false
	}
	switch last := stmts[len(stmts)-1].(type) {
	case *ast.ReturnStmt:
		return true
	case *ast.ExprStmt:
		if call, ok := last.X.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
	}
	return false
}
