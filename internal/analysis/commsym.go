package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// CommSym enforces the paper's collective-symmetry discipline (eq. 8): every
// rank must execute the same sequence of collectives and halo exchanges per
// step. It flags:
//
//   - calls to comm.Comm collectives (Allgather, Alltoall, Split) and
//     topo.Exchanger exchanges (Begin, Exchange) — or to any function that
//     transitively performs one (tracked via facts across packages) — that
//     are control-dependent on a rank-valued expression (Comm.Rank(),
//     Topology.Cx/Cy/Cz, and local variables derived from them). A rank
//     that skips (or doubles) a collective its peers execute deadlocks the
//     step; at vet time this is the collective-divergence class that
//     otherwise only surfaces as a hang on a 1024-rank run.
//   - Exchanger.Begin calls whose *Pending result is discarded or never
//     completed with Finish in the same function (and does not escape):
//     an unpaired deep-halo exchange leaves receives undrained, breaking the
//     paired-exchange structure of §4.3.1.
//
// //cadyvet:rankuniform (on the call, its controlling statement, or the
// enclosing function) waives a symmetry finding with justification;
// //cadyvet:allow waives a pairing finding.
var CommSym = &Analyzer{
	Name: "commsym",
	Doc:  "flag rank-conditional collectives and unpaired halo-exchange Begin calls",
}

func init() { CommSym.Run = runCommSym }

// collectiveMethods are the symmetric operations of comm.Comm: every rank of
// the communicator must enter them in the same program order.
var collectiveMethods = map[string]bool{
	"Allgather": true, "Alltoall": true, "Split": true,
}

// exchangerMethods are the symmetric operations of topo.Exchanger (the halo
// exchange is pairwise but issued in identical program order on all ranks).
var exchangerMethods = map[string]bool{"Begin": true, "Exchange": true}

// isCollectiveFunc reports whether fn directly is a symmetric communication
// operation.
func isCollectiveFunc(fn *types.Func) bool {
	if methodOn(fn, "comm", "Comm") && collectiveMethods[fn.Name()] {
		return true
	}
	if methodOn(fn, "topo", "Exchanger") && exchangerMethods[fn.Name()] {
		return true
	}
	return false
}

// isRankSource reports whether expr directly yields a rank-valued quantity:
// a Comm.Rank() call or a Topology.Cx/Cy/Cz coordinate.
func (cs *csState) isRankSource(expr ast.Expr) bool {
	switch e := ast.Unparen(expr).(type) {
	case *ast.CallExpr:
		if fn := staticCallee(cs.p.Info, e); fn != nil {
			if fn.Name() == "Rank" && methodOn(fn, "comm", "Comm") {
				return true
			}
		}
	case *ast.SelectorExpr:
		if sel, ok := cs.p.Info.Selections[e]; ok && sel.Kind() == types.FieldVal {
			name := e.Sel.Name
			if name == "Cx" || name == "Cy" || name == "Cz" {
				if n := namedRecv(sel.Recv()); n != nil && n.Obj().Pkg() != nil &&
					n.Obj().Pkg().Name() == "topo" && n.Obj().Name() == "Topology" {
					return true
				}
			}
		}
	case *ast.Ident:
		// The comm package's own rank field (collective implementations are
		// rank-aware by construction; their p2p bodies are not collectives,
		// so this only matters if one nests a collective under a rank test).
		if cs.p.Pkg.Name() == "comm" && e.Name == "rank" {
			return true
		}
	}
	return false
}

type csFunc struct {
	fd         funcDecl
	collective bool // direct collective call in the body
	calls      []*types.Func
}

type csState struct {
	p     *Pass
	decls map[*types.Func]*csFunc
	memo  map[*types.Func]bool
	stack map[*types.Func]bool
}

func runCommSym(p *Pass) {
	cs := &csState{
		p:     p,
		decls: make(map[*types.Func]*csFunc),
		memo:  make(map[*types.Func]bool),
		stack: make(map[*types.Func]bool),
	}
	fds := p.enclosingFuncs()
	for i := range fds {
		fd := fds[i]
		cf := &csFunc{fd: fd}
		if fd.decl.Body != nil {
			ast.Inspect(fd.decl.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if fn := staticCallee(p.Info, call); fn != nil {
					if isCollectiveFunc(fn) {
						cf.collective = true
					} else {
						cf.calls = append(cf.calls, fn)
					}
				}
				return true
			})
		}
		cs.decls[fd.obj] = cf
	}

	// Export the Collective fact (merged into the allocfree facts).
	for _, fd := range fds {
		key := funcKey(fd.obj)
		fact := p.Facts.Current.Funcs[key]
		fact.Collective = cs.resolve(fd.obj)
		p.Facts.Put(key, fact)
	}

	// Enforce rank-uniform control flow and Begin/Finish pairing.
	for _, fd := range fds {
		if fd.decl.Body == nil {
			continue
		}
		if d := p.funcDirective(fd.decl, dirRankUniform); d != nil {
			d.used = true
			continue
		}
		w := &csWalker{cs: cs, fn: fd}
		w.taint()
		w.stmts(fd.decl.Body.List, nil)
		cs.checkPairing(fd)
	}
}

// resolve reports whether fn transitively performs a collective.
func (cs *csState) resolve(fn *types.Func) bool {
	fn = fn.Origin()
	if v, ok := cs.memo[fn]; ok {
		return v
	}
	cf, local := cs.decls[fn]
	if !local {
		if pkg := fn.Pkg(); pkg != nil {
			if f, ok := cs.p.Facts.Imported(pkg.Path(), funcKey(fn)); ok {
				return f.Collective
			}
		}
		return false
	}
	if cs.stack[fn] {
		return false
	}
	cs.stack[fn] = true
	defer delete(cs.stack, fn)
	v := cf.collective
	for _, callee := range cf.calls {
		if v {
			break
		}
		v = cs.resolve(callee)
	}
	cs.memo[fn] = v
	return v
}

// csWalker walks one function body tracking rank-dependent control regions.
type csWalker struct {
	cs      *csState
	fn      funcDecl
	tainted map[types.Object]bool
	// ctrl is the stack of positions of the statements that made the current
	// region rank-dependent (for rankuniform waivers placed on the branch).
	ctrl []token.Pos
}

// taint computes the local variables derived from rank-valued expressions
// (simple flow-insensitive fixpoint over assignments).
func (w *csWalker) taint() {
	w.tainted = make(map[types.Object]bool)
	info := w.cs.p.Info
	for changed := true; changed; {
		changed = false
		ast.Inspect(w.fn.decl.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				if len(n.Lhs) == len(n.Rhs) {
					for i := range n.Lhs {
						id, ok := n.Lhs[i].(*ast.Ident)
						if !ok {
							continue
						}
						obj := info.Defs[id]
						if obj == nil {
							obj = info.Uses[id]
						}
						if obj != nil && !w.tainted[obj] && w.exprTainted(n.Rhs[i]) {
							w.tainted[obj] = true
							changed = true
						}
					}
				}
			case *ast.ValueSpec:
				for i, id := range n.Names {
					if i < len(n.Values) {
						obj := info.Defs[id]
						if obj != nil && !w.tainted[obj] && w.exprTainted(n.Values[i]) {
							w.tainted[obj] = true
							changed = true
						}
					}
				}
			}
			return true
		})
	}
}

// exprTainted reports whether the expression involves a rank-valued source
// or a tainted variable.
func (w *csWalker) exprTainted(expr ast.Expr) bool {
	if expr == nil {
		return false
	}
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		if found {
			return false
		}
		if e, ok := n.(ast.Expr); ok {
			if w.cs.isRankSource(e) {
				found = true
				return false
			}
			if id, ok := e.(*ast.Ident); ok {
				if obj := w.cs.p.Info.Uses[id]; obj != nil && w.tainted[obj] {
					found = true
					return false
				}
			}
		}
		return true
	})
	return found
}

// stmts walks a statement list. ctrl carries the rank-dependent control
// stack; a terminating rank-conditional branch extends the region over the
// rest of the list (the `if rank != 0 { return }` early-exit pattern).
func (w *csWalker) stmts(list []ast.Stmt, ctrl []token.Pos) {
	for i, st := range list {
		w.stmt(st, ctrl)
		if ifst, ok := st.(*ast.IfStmt); ok && w.ifTainted(ifst) && ifTerminates(ifst) {
			rest := append(append([]token.Pos(nil), ctrl...), ifst.Pos())
			for _, later := range list[i+1:] {
				w.stmt(later, rest)
			}
			return
		}
	}
}

// ifTainted reports whether the if condition (of this statement or a
// chained else-if) is rank-dependent.
func (w *csWalker) ifTainted(n *ast.IfStmt) bool {
	if w.exprTainted(n.Cond) {
		return true
	}
	if elif, ok := n.Else.(*ast.IfStmt); ok {
		return w.ifTainted(elif)
	}
	return false
}

// ifTerminates reports whether any branch of the if ends control flow.
func ifTerminates(n *ast.IfStmt) bool {
	if blockTerminates(n.Body.List) {
		return true
	}
	switch e := n.Else.(type) {
	case *ast.BlockStmt:
		return blockTerminates(e.List)
	case *ast.IfStmt:
		return ifTerminates(e)
	}
	return false
}

func blockTerminates(list []ast.Stmt) bool {
	if len(list) == 0 {
		return false
	}
	switch last := list[len(list)-1].(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	case *ast.ExprStmt:
		if call, ok := last.X.(*ast.CallExpr); ok {
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
				return id.Name == "panic"
			}
		}
	}
	return false
}

func (w *csWalker) stmt(st ast.Stmt, ctrl []token.Pos) {
	switch n := st.(type) {
	case *ast.IfStmt:
		w.exprs(n.Cond, ctrl)
		inner := ctrl
		if w.exprTainted(n.Cond) {
			inner = append(append([]token.Pos(nil), ctrl...), n.Pos())
		}
		w.stmts(n.Body.List, inner)
		if n.Else != nil {
			w.stmt(n.Else, inner)
		}
	case *ast.ForStmt:
		inner := ctrl
		if n.Cond != nil && w.exprTainted(n.Cond) {
			inner = append(append([]token.Pos(nil), ctrl...), n.Pos())
		}
		if n.Init != nil {
			w.stmt(n.Init, ctrl)
		}
		if n.Cond != nil {
			w.exprs(n.Cond, ctrl)
		}
		if n.Post != nil {
			w.stmt(n.Post, inner)
		}
		w.stmts(n.Body.List, inner)
	case *ast.RangeStmt:
		inner := ctrl
		if w.exprTainted(n.X) {
			inner = append(append([]token.Pos(nil), ctrl...), n.Pos())
		}
		w.exprs(n.X, ctrl)
		w.stmts(n.Body.List, inner)
	case *ast.SwitchStmt:
		inner := ctrl
		if (n.Tag != nil && w.exprTainted(n.Tag)) || (n.Init != nil && w.initTainted(n.Init)) {
			inner = append(append([]token.Pos(nil), ctrl...), n.Pos())
		}
		if n.Tag != nil {
			w.exprs(n.Tag, ctrl)
		}
		for _, c := range n.Body.List {
			cc, ok := c.(*ast.CaseClause)
			if !ok {
				continue
			}
			caseCtrl := inner
			if len(caseCtrl) == len(ctrl) { // tag untainted: a tainted case guard still taints
				for _, e := range cc.List {
					if w.exprTainted(e) {
						caseCtrl = append(append([]token.Pos(nil), ctrl...), n.Pos())
						break
					}
				}
			}
			w.stmts(cc.Body, caseCtrl)
		}
	case *ast.BlockStmt:
		w.stmts(n.List, ctrl)
	case *ast.SelectStmt:
		for _, c := range n.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				w.stmts(cc.Body, ctrl)
			}
		}
	case *ast.TypeSwitchStmt:
		for _, c := range n.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				w.stmts(cc.Body, ctrl)
			}
		}
	case *ast.LabeledStmt:
		w.stmt(n.Stmt, ctrl)
	case *ast.GoStmt:
		w.exprs(n.Call, ctrl)
	case *ast.DeferStmt:
		w.exprs(n.Call, ctrl)
	case *ast.ExprStmt:
		w.exprs(n.X, ctrl)
	case *ast.AssignStmt:
		for _, e := range n.Rhs {
			w.exprs(e, ctrl)
		}
		for _, e := range n.Lhs {
			w.exprs(e, ctrl)
		}
	case *ast.ReturnStmt:
		for _, e := range n.Results {
			w.exprs(e, ctrl)
		}
	case *ast.DeclStmt:
		if gd, ok := n.Decl.(*ast.GenDecl); ok {
			for _, sp := range gd.Specs {
				if vs, ok := sp.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						w.exprs(v, ctrl)
					}
				}
			}
		}
	case *ast.SendStmt:
		w.exprs(n.Chan, ctrl)
		w.exprs(n.Value, ctrl)
	case *ast.IncDecStmt:
		w.exprs(n.X, ctrl)
	}
}

func (w *csWalker) initTainted(st ast.Stmt) bool {
	if as, ok := st.(*ast.AssignStmt); ok {
		for _, r := range as.Rhs {
			if w.exprTainted(r) {
				return true
			}
		}
	}
	return false
}

// exprs scans an expression tree for collective calls made under a
// rank-dependent control region.
func (w *csWalker) exprs(expr ast.Expr, ctrl []token.Pos) {
	ast.Inspect(expr, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := staticCallee(w.cs.p.Info, call)
		if fn == nil {
			return true
		}
		direct := isCollectiveFunc(fn)
		if !direct && !w.cs.resolve(fn) {
			return true
		}
		if len(ctrl) == 0 {
			return true
		}
		// Waiver may sit on the call or on any controlling statement.
		p := w.cs.p
		for _, cp := range ctrl {
			if d := p.ann.at(p.Fset.Position(cp), dirRankUniform); d != nil {
				d.used = true
				return true
			}
		}
		kind := "collective"
		if !direct {
			kind = "collective-bearing call to"
		}
		p.report(CommSym.Name, call.Pos(), dirRankUniform,
			"%s %s is control-dependent on a rank-valued condition (%s): every rank must execute the same collective sequence (eq. 8)",
			kind, fn.Name(), w.cs.pos(ctrl[len(ctrl)-1]))
		return true
	})
}

func (cs *csState) pos(p token.Pos) string {
	position := cs.p.Fset.Position(p)
	return position.String()
}

// checkPairing flags Exchanger.Begin calls whose Pending is never completed.
func (cs *csState) checkPairing(fd funcDecl) {
	info := cs.p.Info
	body := fd.decl.Body

	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := staticCallee(info, call)
		if fn == nil || fn.Name() != "Begin" || !methodOn(fn, "topo", "Exchanger") {
			return true
		}
		switch parent := cs.beginUse(body, call); parent {
		case "chained", "assigned-completed":
			// ok
		case "discarded":
			cs.p.report(CommSym.Name, call.Pos(), dirAllow,
				"Exchanger.Begin result discarded: the Pending exchange is never completed with Finish (unpaired deep-halo exchange)")
		case "incomplete":
			cs.p.report(CommSym.Name, call.Pos(), dirAllow,
				"Exchanger.Begin result is never completed with Finish on any path in %s (unpaired deep-halo exchange)", fd.obj.Name())
		}
		return true
	})
}

// beginUse classifies how one Begin call's result is used within body:
// "chained" (.Finish() immediately), "discarded" (ExprStmt), or whether the
// assigned variable is completed/escapes ("assigned-completed") or not
// ("incomplete").
func (cs *csState) beginUse(body *ast.BlockStmt, begin *ast.CallExpr) string {
	info := cs.p.Info
	verdict := "chained" // default: used in a larger expression (e.g. e.Begin(...).Finish())
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ExprStmt:
			if ast.Unparen(n.X) == begin {
				verdict = "discarded"
				return false
			}
		case *ast.AssignStmt:
			for i, r := range n.Rhs {
				if ast.Unparen(r) != begin || i >= len(n.Lhs) {
					continue
				}
				id, ok := n.Lhs[i].(*ast.Ident)
				if !ok {
					verdict = "assigned-completed" // stored through a field/index: escapes
					return false
				}
				if id.Name == "_" {
					verdict = "discarded"
					return false
				}
				obj := info.Defs[id]
				if obj == nil {
					obj = info.Uses[id]
				}
				if obj == nil {
					return false
				}
				if cs.objCompleted(body, obj, begin) {
					verdict = "assigned-completed"
				} else {
					verdict = "incomplete"
				}
				return false
			}
		}
		return true
	})
	return verdict
}

// objCompleted reports whether obj has a Finish call or escapes after the
// Begin call.
func (cs *csState) objCompleted(body *ast.BlockStmt, obj types.Object, begin *ast.CallExpr) bool {
	info := cs.p.Info
	done := false
	ast.Inspect(body, func(n ast.Node) bool {
		if done {
			return false
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			if n == begin {
				return true
			}
			if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok {
				if id, ok := ast.Unparen(sel.X).(*ast.Ident); ok && info.Uses[id] == obj {
					done = true // any method call on the Pending (Finish, or a helper)
					return false
				}
			}
			for _, arg := range n.Args {
				if id, ok := ast.Unparen(arg).(*ast.Ident); ok && info.Uses[id] == obj {
					done = true // escapes into a call
					return false
				}
			}
		case *ast.ReturnStmt:
			for _, r := range n.Results {
				if id, ok := ast.Unparen(r).(*ast.Ident); ok && info.Uses[id] == obj {
					done = true
					return false
				}
			}
		case *ast.AssignStmt:
			for _, r := range n.Rhs {
				if id, ok := ast.Unparen(r).(*ast.Ident); ok && info.Uses[id] == obj {
					done = true // copied elsewhere: assume completed there
					return false
				}
			}
		}
		return true
	})
	return done
}
