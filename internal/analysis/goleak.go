package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// GoLeak flags, module-wide, the two classic timer-leak idioms:
//
//   - time.After inside a loop: each iteration allocates a timer that is
//     not collected until it fires, unbounded on a busy loop — hoist a
//     time.NewTimer and reuse it;
//   - time.Tick anywhere: the returned ticker can never be stopped.
//
// //cadyvet:allow waives a finding. (Goroutine shutdown paths are pinned at
// run time instead: the server and fleet tests end with VerifyNoLeaks.)
var GoLeak = &Analyzer{
	Name: "goleak",
	Doc:  "flag time.After inside a loop and time.Tick (timers that leak)",
}

func init() { GoLeak.Run = runGoLeak }

func runGoLeak(p *Pass) {
	for _, fd := range p.enclosingFuncs() {
		if fd.decl.Body != nil {
			checkTimers(p, fd)
		}
	}
}

// checkTimers flags time.Tick anywhere and time.After under a loop.
func checkTimers(p *Pass, fd funcDecl) {
	reported := map[token.Pos]bool{}
	timeCall := func(n ast.Node, name string) *ast.CallExpr {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return nil
		}
		fn := staticCallee(p.Info, call)
		if fn == nil || fn.Name() != name || fn.Pkg() == nil || fn.Pkg().Name() != "time" {
			return nil
		}
		if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
			return nil // time.Time.After, not the package function
		}
		return call
	}
	ast.Inspect(fd.decl.Body, func(n ast.Node) bool {
		if call := timeCall(n, "Tick"); call != nil {
			p.report(GoLeak.Name, call.Pos(), dirAllow,
				"time.Tick leaks its ticker (it can never be stopped): use time.NewTicker with a deferred Stop")
			return true
		}
		var body *ast.BlockStmt
		switch loop := n.(type) {
		case *ast.ForStmt:
			body = loop.Body
		case *ast.RangeStmt:
			body = loop.Body
		default:
			return true
		}
		ast.Inspect(body, func(inner ast.Node) bool {
			call := timeCall(inner, "After")
			if call == nil || reported[call.Pos()] {
				return true
			}
			reported[call.Pos()] = true
			p.report(GoLeak.Name, call.Pos(), dirAllow,
				"time.After inside a loop allocates a timer per iteration that is only collected when it fires: hoist a time.NewTimer and reuse it")
			return true
		})
		return true
	})
}
