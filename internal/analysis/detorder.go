package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// DetOrder enforces deterministic reduction and serialization order: Go map
// iteration order is randomized per run, so a `for … range m` over a map
// whose body
//
//   - accumulates into a floating-point (or complex, or string) variable
//     declared outside the loop — float addition is not associative, so the
//     result differs bitwise between runs, breaking the reproducibility the
//     checkpoint/restart tests rely on;
//   - performs communication (a collective, halo exchange, send — or any
//     call that transitively does) — ranks would issue messages in differing
//     orders; or
//   - serializes (writes to an io.Writer via Write*/Fprint*/Encode) — byte
//     output differs between runs, breaking content-addressed checkpoints
//     and golden files
//
// must iterate in a sorted order instead (collect keys, sort, then loop).
// //cadyvet:unordered on the range statement waives a finding with
// justification (e.g. when the body only fills another map).
var DetOrder = &Analyzer{
	Name: "detorder",
	Doc:  "flag map-ordered loops feeding float accumulation, communication or serialization",
}

func init() { DetOrder.Run = runDetOrder }

// commP2PMethods: point-to-point operations also order-sensitive across ranks.
var commP2PMethods = map[string]bool{"Send": true, "Lend": true, "RecvInto": true, "RecvRuns": true}

// serializeFuncs: package-level functions whose call inside a map-ordered
// loop emits bytes in iteration order.
var serializeFuncs = map[string]bool{
	"Fprint": true, "Fprintf": true, "Fprintln": true,
	"Print": true, "Printf": true, "Println": true,
}

// serializeMethods: methods that append to a stream or encoder.
var serializeMethods = map[string]bool{
	"Write": true, "WriteString": true, "WriteByte": true, "WriteRune": true,
	"Encode": true,
}

func runDetOrder(p *Pass) {
	for _, fd := range p.enclosingFuncs() {
		if fd.decl.Body == nil {
			continue
		}
		ast.Inspect(fd.decl.Body, func(n ast.Node) bool {
			rng, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			t := p.Info.TypeOf(rng.X)
			if t == nil {
				return true
			}
			if _, isMap := t.Underlying().(*types.Map); !isMap {
				return true
			}
			checkMapRange(p, rng)
			return true
		})
	}
}

func checkMapRange(p *Pass, rng *ast.RangeStmt) {
	body := rng.Body
	report := func(pos token.Pos, format string, args ...any) {
		// The waiver lives on the range statement (it covers the whole loop).
		if d := p.ann.at(p.Fset.Position(rng.Pos()), dirUnordered); d != nil {
			d.used = true
			return
		}
		p.report(DetOrder.Name, pos, dirUnordered, format, args...)
	}

	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			checkAccumulation(p, rng, n, report)
		case *ast.CallExpr:
			checkOrderedCall(p, n, report)
		}
		return true
	})
}

// rangeVarObjs returns the key/value loop variable objects of a range
// statement.
func rangeVarObjs(p *Pass, rng *ast.RangeStmt) map[types.Object]bool {
	vars := map[types.Object]bool{}
	for _, e := range []ast.Expr{rng.Key, rng.Value} {
		id, ok := e.(*ast.Ident)
		if !ok {
			continue
		}
		obj := p.Info.Defs[id]
		if obj == nil {
			obj = p.Info.Uses[id]
		}
		if obj != nil {
			vars[obj] = true
		}
	}
	return vars
}

// checkAccumulation flags `acc op= expr` (and `acc = acc op expr`) where acc
// is a float/complex/string accumulator declared outside the loop body.
// Writes to a location indexed by a loop variable (m[k] /= d, out[k] += v)
// touch each element once and are order-insensitive, so they are exempt.
func checkAccumulation(p *Pass, rng *ast.RangeStmt, n *ast.AssignStmt, report func(token.Pos, string, ...any)) {
	rangeVars := rangeVarObjs(p, rng)
	indexedByRangeVar := func(e ast.Expr) bool {
		found := false
		ast.Inspect(e, func(m ast.Node) bool {
			ix, ok := m.(*ast.IndexExpr)
			if !ok {
				return !found
			}
			ast.Inspect(ix.Index, func(m ast.Node) bool {
				if id, ok := m.(*ast.Ident); ok {
					if obj := p.Info.Uses[id]; obj != nil && rangeVars[obj] {
						found = true
					}
				}
				return !found
			})
			return !found
		})
		return found
	}
	orderSensitive := func(t types.Type) string {
		if t == nil {
			return ""
		}
		b, ok := t.Underlying().(*types.Basic)
		if !ok {
			return ""
		}
		switch {
		case b.Info()&types.IsFloat != 0:
			return "floating-point"
		case b.Info()&types.IsComplex != 0:
			return "complex"
		case b.Info()&types.IsString != 0:
			return "string"
		}
		return ""
	}
	declaredOutside := func(e ast.Expr) bool {
		root := e
		for {
			switch x := ast.Unparen(root).(type) {
			case *ast.SelectorExpr:
				root = x.X
				continue
			case *ast.IndexExpr:
				root = x.X
				continue
			case *ast.StarExpr:
				root = x.X
				continue
			}
			break
		}
		id, ok := ast.Unparen(root).(*ast.Ident)
		if !ok {
			return true // conservatively: complex roots assumed outer
		}
		obj := p.Info.Uses[id]
		if obj == nil {
			obj = p.Info.Defs[id]
		}
		if obj == nil {
			return false
		}
		return obj.Pos() < rng.Body.Pos() || obj.Pos() > rng.Body.End()
	}

	switch n.Tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
		kind := orderSensitive(p.Info.TypeOf(n.Lhs[0]))
		if kind != "" && declaredOutside(n.Lhs[0]) && !indexedByRangeVar(n.Lhs[0]) {
			report(n.Pos(), "%s accumulation in map-iteration order is not reproducible: iterate over sorted keys instead", kind)
		}
	case token.ASSIGN:
		// x = x + v / x = x * v …
		for i := range n.Lhs {
			if i >= len(n.Rhs) {
				break
			}
			be, ok := ast.Unparen(n.Rhs[i]).(*ast.BinaryExpr)
			if !ok {
				continue
			}
			switch be.Op {
			case token.ADD, token.SUB, token.MUL, token.QUO:
			default:
				continue
			}
			kind := orderSensitive(p.Info.TypeOf(n.Lhs[i]))
			if kind == "" || !declaredOutside(n.Lhs[i]) || indexedByRangeVar(n.Lhs[i]) {
				continue
			}
			if sameExprText(n.Lhs[i], be.X) || sameExprText(n.Lhs[i], be.Y) {
				report(n.Pos(), "%s accumulation in map-iteration order is not reproducible: iterate over sorted keys instead", kind)
			}
		}
	}
}

// checkOrderedCall flags communication and serialization calls whose order
// follows the map iteration.
func checkOrderedCall(p *Pass, call *ast.CallExpr, report func(token.Pos, string, ...any)) {
	fn := staticCallee(p.Info, call)
	if fn != nil {
		if isCollectiveFunc(fn) ||
			(methodOn(fn, "comm", "Comm") && commP2PMethods[fn.Name()]) {
			report(call.Pos(), "communication (%s) in map-iteration order diverges between runs and ranks: iterate over sorted keys", fn.Name())
			return
		}
		// Transitively collective helpers, via facts.
		if pkg := fn.Pkg(); pkg != nil {
			var coll bool
			if p.Pkg != nil && pkg == p.Pkg {
				coll = p.Facts.Current.Funcs[funcKey(fn)].Collective
			} else if f, ok := p.Facts.Imported(pkg.Path(), funcKey(fn)); ok {
				coll = f.Collective
			}
			if coll {
				report(call.Pos(), "communication (%s, transitively) in map-iteration order diverges between runs and ranks: iterate over sorted keys", fn.Name())
				return
			}
		}
		if fn.Pkg() != nil && fn.Pkg().Name() == "fmt" && serializeFuncs[fn.Name()] {
			report(call.Pos(), "serialization (fmt.%s) in map-iteration order is not reproducible: iterate over sorted keys", fn.Name())
			return
		}
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil && serializeMethods[fn.Name()] {
			report(call.Pos(), "serialization (%s) in map-iteration order is not reproducible: iterate over sorted keys", fn.Name())
			return
		}
		return
	}
	// Interface-dispatched writers (io.Writer.Write etc.).
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if s2, ok := p.Info.Selections[sel]; ok && s2.Kind() == types.MethodVal &&
			isInterface(s2.Recv()) && serializeMethods[sel.Sel.Name] {
			report(call.Pos(), "serialization (%s) in map-iteration order is not reproducible: iterate over sorted keys", sel.Sel.Name)
		}
	}
}

// sameExprText compares two expressions structurally by their printed form
// (sufficient for accumulator matching like `x.f = x.f + v`).
func sameExprText(a, b ast.Expr) bool {
	return exprString(a) == exprString(b)
}

func exprString(e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprString(e.X) + "." + e.Sel.Name
	case *ast.IndexExpr:
		return exprString(e.X) + "[" + exprString(e.Index) + "]"
	case *ast.StarExpr:
		return "*" + exprString(e.X)
	case *ast.BasicLit:
		return e.Value
	}
	return "?"
}
