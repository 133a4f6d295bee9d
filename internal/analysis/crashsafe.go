package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"slices"
)

// CrashSafe enforces the crash-safe persistence protocol in packages marked
// //cadyvet:persistence: durable files must reach disk as temp-in-destination
// + fsync + rename + parent-dir fsync, implemented once in the
// //cadyvet:blessed helpers (checkpoint.WriteAtomic/commitTmp/SyncDir and
// friends). In a persistence package it flags:
//
//   - raw durable-path mutations — os.Create, os.OpenFile, os.WriteFile,
//     os.Rename, os.CreateTemp, os.Mkdir, os.MkdirAll — outside a blessed
//     function: hand-rolled write paths drift from the protocol (the
//     torn-write class the chaos tests only catch probabilistically; a new
//     directory whose parent is never fsynced can vanish after a power loss,
//     taking every file committed inside it along). Calls to imported functions
//     that transitively perform such a mutation are flagged too, via the
//     RawWrite fact.
//   - os.CreateTemp with dir "" (the system temp dir), anywhere including
//     blessed helpers: a cross-filesystem rename is not atomic, so the temp
//     file must live in the destination directory.
//   - discarded errors from Sync, Rename, and Close on write handles: a
//     failed fsync means the data may not be durable, and the caller must
//     see it. An unchecked Close is tolerated as a defer backstop when the
//     same handle also has a checked Close.
//
// //cadyvet:volatile waives a finding for state that is genuinely
// best-effort (scratch files, caches whose loss is safe).
var CrashSafe = &Analyzer{
	Name: "crashsafe",
	Doc:  "route durable writes in //cadyvet:persistence packages through the blessed commit helpers",
}

func init() { CrashSafe.Run = runCrashSafe }

// rawWriteFuncs are the os entry points that mutate a path.
var rawWriteFuncs = map[string]bool{
	"Create": true, "OpenFile": true, "WriteFile": true, "Rename": true, "CreateTemp": true,
	"Mkdir": true, "MkdirAll": true,
}

// mkdirFuncs are the raw mutations that create a directory. They are reported
// where a persistence package calls them, but do not make the caller a raw
// writer for its importers: testing's TempDir and os.MkdirTemp make scratch
// space, not durable state.
var mkdirFuncs = map[string]bool{"Mkdir": true, "MkdirAll": true}

// csEvent is one raw durable-path mutation, described for diagnostics.
type csEvent struct {
	pos   token.Pos
	desc  string
	mkdir bool // reported here, but no RawWrite reason for callers
}

// csCall is one outgoing static call.
type csCall struct {
	pos token.Pos
	fn  *types.Func
}

type csfFunc struct {
	fd      funcDecl
	blessed *directive
	events  []csEvent // raw mutations in the body (waived ones excluded)
	temps   []token.Pos
	calls   []csCall
}

type csfState struct {
	p     *Pass
	decls map[*types.Func]*csfFunc
	memo  map[*types.Func]string // resolved RawWrite reason
	stack map[*types.Func]bool
}

func runCrashSafe(p *Pass) {
	s := &csfState{
		p:     p,
		decls: make(map[*types.Func]*csfFunc),
		memo:  make(map[*types.Func]string),
		stack: make(map[*types.Func]bool),
	}
	persistence := false
	for _, d := range p.ann.all {
		if d.kind == dirPersistence {
			d.used = true
			persistence = true
		}
	}

	fds := p.enclosingFuncs()
	for i := range fds {
		s.decls[fds[i].obj] = s.collect(fds[i])
	}

	// Export facts for every function, whether or not this package is a
	// persistence surface — its importers may be.
	for _, fd := range fds {
		key := funcKey(fd.obj)
		fact := p.Facts.Current.Funcs[key]
		fact.Blessed = s.decls[fd.obj].blessed != nil
		fact.RawWrite = s.resolve(fd.obj)
		p.Facts.Put(key, fact)
	}

	if !persistence {
		return
	}
	for _, fd := range fds {
		cf := s.decls[fd.obj]
		if cf.blessed == nil {
			for _, ev := range cf.events {
				p.report(CrashSafe.Name, ev.pos, dirVolatile,
					"raw %s bypasses the blessed commit helpers (use checkpoint.WriteAtomic/commitTmp/MkdirDurable or mark the helper cadyvet:blessed)", ev.desc)
			}
			for _, call := range cf.calls {
				if _, local := s.decls[call.fn.Origin()]; local {
					continue // its own raw events are reported at their sites
				}
				if reason := s.resolve(call.fn); reason != "" {
					p.report(CrashSafe.Name, call.pos, dirVolatile,
						"call to %s performs a raw durable write outside the blessed helpers: %s", call.fn.Name(), reason)
				}
			}
		}
		for _, pos := range cf.temps {
			p.report(CrashSafe.Name, pos, dirVolatile,
				"temp file created in the system temp dir: create it in the destination directory so the commit rename stays on one filesystem")
		}
		s.checkUnchecked(fd)
	}
}

// resolve computes the RawWrite reason of fn: the first raw mutation it
// (transitively) performs outside a blessed helper, or "".
func (s *csfState) resolve(fn *types.Func) string {
	fn = fn.Origin()
	if r, ok := s.memo[fn]; ok {
		return r
	}
	cf, local := s.decls[fn]
	if !local {
		pkg := fn.Pkg()
		if pkg == nil {
			return ""
		}
		if f, ok := s.p.Facts.Imported(pkg.Path(), funcKey(fn)); ok && !f.Blessed {
			return f.RawWrite
		}
		return ""
	}
	if cf.blessed != nil {
		cf.blessed.used = true
		s.memo[fn] = ""
		return ""
	}
	if s.stack[fn] {
		return ""
	}
	s.stack[fn] = true
	defer delete(s.stack, fn)

	reason := ""
	if i := slices.IndexFunc(cf.events, func(ev csEvent) bool { return !ev.mkdir }); i >= 0 {
		reason = fmt.Sprintf("%s at %s", cf.events[i].desc, s.pos(cf.events[i].pos))
	} else {
		for _, call := range cf.calls {
			if r := s.resolve(call.fn); r != "" {
				if len(r) > 160 {
					r = r[:157] + "…" // deep call chains stay readable
				}
				reason = fmt.Sprintf("%s writes raw (%s)", call.fn.Name(), r)
				break
			}
		}
	}
	s.memo[fn] = reason
	return reason
}

// pos renders a short source position (pkgdir/file:line).
func (s *csfState) pos(p token.Pos) string {
	position := s.p.Fset.Position(p)
	dir := filepath.Base(filepath.Dir(position.Filename))
	return fmt.Sprintf("%s/%s:%d", dir, filepath.Base(position.Filename), position.Line)
}

// collect gathers one function's raw-mutation events, temp-dir violations
// and outgoing static calls.
func (s *csfState) collect(fd funcDecl) *csfFunc {
	cf := &csfFunc{fd: fd}
	cf.blessed = s.p.funcDirective(fd.decl, dirBlessed)
	if fd.decl.Body == nil {
		return cf
	}
	ast.Inspect(fd.decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := staticCallee(s.p.Info, call)
		if fn == nil {
			return true
		}
		if fn.Pkg() != nil && fn.Pkg().Name() == "os" && fn.Type().(*types.Signature).Recv() == nil {
			if fn.Name() == "CreateTemp" && len(call.Args) > 0 {
				if lit, ok := ast.Unparen(call.Args[0]).(*ast.BasicLit); ok && lit.Value == `""` {
					if d := s.p.ann.at(s.p.Fset.Position(call.Pos()), dirVolatile); d != nil {
						d.used = true
					} else {
						cf.temps = append(cf.temps, call.Pos())
					}
				}
			}
			if rawWriteFuncs[fn.Name()] {
				if d := s.p.ann.at(s.p.Fset.Position(call.Pos()), dirVolatile); d != nil {
					d.used = true
				} else {
					cf.events = append(cf.events, csEvent{call.Pos(), "os." + fn.Name(), mkdirFuncs[fn.Name()]})
				}
				return true
			}
			return true
		}
		cf.calls = append(cf.calls, csCall{call.Pos(), fn})
		return true
	})
	return cf
}

// checkUnchecked flags discarded Sync/Rename/Close errors on the write paths
// of one function.
func (s *csfState) checkUnchecked(fd funcDecl) {
	if fd.decl.Body == nil {
		return
	}
	info := s.p.Info

	// Calls whose result is discarded: expression statements and deferred
	// calls.
	discarded := map[*ast.CallExpr]bool{}
	// Write handles: locals assigned from os.Create/os.OpenFile/os.CreateTemp.
	handles := map[types.Object]bool{}
	ast.Inspect(fd.decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ExprStmt:
			if c, ok := ast.Unparen(n.X).(*ast.CallExpr); ok {
				discarded[c] = true
			}
		case *ast.DeferStmt:
			discarded[n.Call] = true
		case *ast.AssignStmt:
			if len(n.Rhs) != 1 {
				return true
			}
			call, ok := ast.Unparen(n.Rhs[0]).(*ast.CallExpr)
			if !ok || len(n.Lhs) == 0 {
				return true
			}
			fn := staticCallee(info, call)
			if fn == nil || fn.Pkg() == nil || fn.Pkg().Name() != "os" {
				return true
			}
			switch fn.Name() {
			case "Create", "OpenFile", "CreateTemp":
				if id, ok := n.Lhs[0].(*ast.Ident); ok {
					if obj := info.Defs[id]; obj != nil {
						handles[obj] = true
					} else if obj := info.Uses[id]; obj != nil {
						handles[obj] = true
					}
				}
			}
		}
		return true
	})

	handleOf := func(call *ast.CallExpr) types.Object {
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return nil
		}
		id, ok := ast.Unparen(sel.X).(*ast.Ident)
		if !ok {
			return nil
		}
		obj := info.Uses[id]
		if obj != nil && handles[obj] {
			return obj
		}
		return nil
	}

	checkedClose := map[types.Object]bool{}
	pendingClose := map[types.Object][]token.Pos{}
	ast.Inspect(fd.decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := staticCallee(info, call)
		if fn == nil {
			return true
		}
		switch {
		case fn.Name() == "Rename" && fn.Pkg() != nil && fn.Pkg().Name() == "os":
			if discarded[call] {
				s.p.report(CrashSafe.Name, call.Pos(), dirVolatile,
					"os.Rename error discarded on a persistence write path")
			}
		case fn.Name() == "Sync" && methodOn(fn, "os", "File"):
			if discarded[call] {
				s.p.report(CrashSafe.Name, call.Pos(), dirVolatile,
					"Sync error discarded on a persistence write path: a failed fsync means the data may not be durable")
			}
		case fn.Name() == "Close" && methodOn(fn, "os", "File"):
			obj := handleOf(call)
			if obj == nil {
				return true
			}
			if discarded[call] {
				pendingClose[obj] = append(pendingClose[obj], call.Pos())
			} else {
				checkedClose[obj] = true
			}
		}
		return true
	})
	for obj, positions := range pendingClose {
		if checkedClose[obj] {
			continue // defer-close backstop alongside a checked Close
		}
		for _, pos := range positions {
			s.p.report(CrashSafe.Name, pos, dirVolatile,
				"Close error discarded on write handle %s: a buffered write error surfaces at Close", obj.Name())
		}
	}
}
