// Package analysis is a self-contained (standard-library-only) static
// analysis suite for this module, in the style of golang.org/x/tools
// go/analysis. It keeps only the checks no test already pins at run time
// (zero-allocation steps, overlap and goroutine shutdown are pinned by
// AllocsPerRun, the simulated-clock tests and VerifyNoLeaks); its five
// analyzers are:
//
//   - commsym: collective operations (comm.Comm's Allgather/Alltoall/Split
//     and topo.Exchanger's Begin/Exchange) must not be control-dependent on
//     rank-valued expressions. Every rank must execute the same sequence of Ĉ
//     and F̃ collectives per step (eq. 8); a rank-conditional collective is the
//     deadlock class that only surfaces at scale. Also: every Exchanger.Begin
//     must have its Pending completed.
//   - detorder: iteration over Go maps is randomized; a map-ordered loop that
//     feeds floating-point accumulation, communication, or serialization
//     breaks bitwise reproducibility across runs and ranks.
//   - guardedby: struct fields annotated //cadyvet:guardedby <mu> may only
//     be touched while the named sibling mutex is held (tracked
//     flow-sensitively per function; //cadyvet:locked declares a
//     caller-holds-lock contract that propagates to call sites via facts).
//     Also: a Lock with no Unlock on some return path, and a guarded field
//     whose address additionally flows into sync/atomic.
//   - crashsafe: in packages annotated //cadyvet:persistence, durable-path
//     mutations (os.Create/Rename/WriteFile/OpenFile/Mkdir/MkdirAll) must
//     flow through the //cadyvet:blessed commit helpers (fsync + rename +
//     dir fsync; a created directory's parent fsynced); temp
//     files must be created in the destination directory; Sync/Close/Rename
//     errors on write paths must be checked.
//   - goleak: time.After inside a loop and time.Tick anywhere (timers that
//     leak), module-wide.
//
// The suite is wired into `go vet -vettool` by cmd/cadyvet (see unit.go for
// the protocol) and is runnable on isolated fixture packages in tests (see
// atest_test.go).
//
// # Annotations
//
// cadyvet understands nine comment directives. Every waiver form requires
// a written justification after the directive word; an empty justification is
// itself a diagnostic, as is an unknown directive word.
//
//	//cadyvet:allow <why>
//	    On (or on the line above) a flagged statement: waive that one
//	    commsym, guardedby or goleak finding.
//	//cadyvet:rankuniform <why>
//	    On (or above) a collective call, or on the controlling if/for/switch
//	    statement, or on the enclosing function's doc comment: assert the
//	    rank-dependent condition evaluates identically on every rank.
//	//cadyvet:unordered <why>
//	    On (or above) a `for … range` statement over a map: assert the loop
//	    is insensitive to iteration order.
//	//cadyvet:guardedby <mu>
//	    On a struct field: the field may only be read while <mu> (a sibling
//	    mutex field of the same struct) is held (RLock suffices), and only
//	    written while it is write-held.
//	//cadyvet:locked <recv>.<mu>
//	    On a function's doc comment: the caller holds the named lock for
//	    the whole call. Seeds the held set at entry and, for methods,
//	    exports a fact so call sites are checked against the caller's
//	    held-lock set across package boundaries.
//	//cadyvet:unshared <why>
//	    On (or above) a guarded-field access, or on the enclosing
//	    function's doc comment: assert the object is not yet shared
//	    (under construction, or exclusively owned) so no lock is needed.
//	//cadyvet:persistence <what>
//	    Anywhere in a package (conventionally the package doc): mark the
//	    package a persistence surface; crashsafe checks its write paths.
//	//cadyvet:blessed <why>
//	    On a function's doc comment: the function IS the crash-safe commit
//	    protocol (temp + fsync + rename + dir fsync); raw filesystem calls
//	    inside it are exempt and calls to it are the sanctioned route.
//	//cadyvet:volatile <why>
//	    On (or above) a raw filesystem mutation in a persistence package:
//	    assert the target is not durable state (scratch, best-effort).
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer describes one static check.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass)
}

// All returns the full cadyvet suite in execution order. The order matters:
// commsym publishes the Collective facts that detorder consumes, and the
// later analyzers merge their fact fields into the same records.
func All() []*Analyzer {
	return []*Analyzer{CommSym, DetOrder, GuardedBy, CrashSafe, GoLeak}
}

// A Diagnostic is one finding.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: [%s] %s", d.Pos, d.Analyzer, d.Message)
}

// A Pass holds one type-checked package plus the fact environment, and
// collects diagnostics. The same Pass value is handed to every analyzer in
// turn (they are independent except for the shared fact tables).
type Pass struct {
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info

	// Facts carries imported per-function summaries and receives the ones
	// computed for this package.
	Facts *FactStore

	ann   *annotations
	diags []*Diagnostic
}

// NewPass assembles a pass and parses the cadyvet annotations of its files.
func NewPass(fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, facts *FactStore) *Pass {
	p := &Pass{Fset: fset, Files: files, Pkg: pkg, Info: info, Facts: facts}
	p.ann = parseAnnotations(fset, files)
	return p
}

// RunAll runs every analyzer, then reports malformed (justification-free)
// directives, and returns the diagnostics sorted by position.
func (p *Pass) RunAll(azs []*Analyzer) []*Diagnostic {
	for _, az := range azs {
		az.Run(p)
	}
	p.reportBadDirectives()
	sort.Slice(p.diags, func(i, j int) bool {
		a, b := p.diags[i].Pos, p.diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return p.diags[i].Message < p.diags[j].Message
	})
	return p.diags
}

// report records a finding unless a matching waiver directive covers pos.
// waiver is the directive kind that can suppress this finding ("" = not
// suppressible).
func (p *Pass) report(az string, pos token.Pos, waiver string, format string, args ...any) {
	position := p.Fset.Position(pos)
	if waiver != "" {
		if d := p.ann.at(position, waiver); d != nil {
			d.used = true
			return
		}
	}
	p.diags = append(p.diags, &Diagnostic{Pos: position, Analyzer: az, Message: fmt.Sprintf(format, args...)})
}

// --- annotations -----------------------------------------------------------

const directivePrefix = "//cadyvet:"

// Directive kinds.
const (
	dirAllow       = "allow"
	dirRankUniform = "rankuniform"
	dirUnordered   = "unordered"
	dirGuardedBy   = "guardedby"
	dirLocked      = "locked"
	dirUnshared    = "unshared"
	dirPersistence = "persistence"
	dirBlessed     = "blessed"
	dirVolatile    = "volatile"
)

type directive struct {
	kind   string
	reason string
	pos    token.Position
	used   bool
}

// annotations indexes every cadyvet directive of a package by file and line.
type annotations struct {
	// byLine[filename][line] lists the directives whose comment sits on that
	// line; a directive on its own comment line also covers the next line,
	// so both "above" and "trailing" placements work.
	byLine map[string]map[int][]*directive
	all    []*directive
}

func parseAnnotations(fset *token.FileSet, files []*ast.File) *annotations {
	a := &annotations{byLine: make(map[string]map[int][]*directive)}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := c.Text
				if !strings.HasPrefix(text, directivePrefix) {
					continue
				}
				rest := strings.TrimPrefix(text, directivePrefix)
				kind, reason, _ := strings.Cut(rest, " ")
				pos := fset.Position(c.Slash)
				d := &directive{kind: kind, reason: strings.TrimSpace(reason), pos: pos}
				a.all = append(a.all, d)
				lines := a.byLine[pos.Filename]
				if lines == nil {
					lines = make(map[int][]*directive)
					a.byLine[pos.Filename] = lines
				}
				lines[pos.Line] = append(lines[pos.Line], d)
				// A comment occupying its own line annotates the following
				// line of code as well.
				lines[pos.Line+1] = append(lines[pos.Line+1], d)
			}
		}
	}
	return a
}

// at returns a directive of the given kind covering the position, or nil.
func (a *annotations) at(pos token.Position, kind string) *directive {
	for _, d := range a.byLine[pos.Filename][pos.Line] {
		if d.kind == kind {
			return d
		}
	}
	return nil
}

// funcDirective returns a directive of the given kind in decl's doc comment
// (or sitting on the lines immediately preceding the declaration), or nil.
func (p *Pass) funcDirective(decl *ast.FuncDecl, kind string) *directive {
	pos := p.Fset.Position(decl.Pos())
	if d := p.ann.at(pos, kind); d != nil {
		return d
	}
	if decl.Doc != nil {
		for _, c := range decl.Doc.List {
			cpos := p.Fset.Position(c.Slash)
			if d := p.ann.at(cpos, kind); d != nil && d.pos == cpos {
				return d
			}
		}
	}
	return nil
}

// reportBadDirectives flags waiver directives without a written reason and
// unknown directive words. (Unused directives are tolerated: an annotation
// may be kept for documentation after the code it excused was fixed.)
func (p *Pass) reportBadDirectives() {
	seen := map[*directive]bool{}
	for _, d := range p.ann.all {
		if seen[d] {
			continue
		}
		seen[d] = true
		switch d.kind {
		case dirGuardedBy, dirLocked:
			if d.reason == "" {
				p.diags = append(p.diags, &Diagnostic{
					Pos:      d.pos,
					Analyzer: "cadyvet",
					Message:  fmt.Sprintf("cadyvet:%s directive requires the guard (mutex) name", d.kind),
				})
			}
		case dirAllow, dirRankUniform, dirUnordered, dirUnshared, dirPersistence, dirBlessed, dirVolatile:
			if d.reason == "" {
				p.diags = append(p.diags, &Diagnostic{
					Pos:      d.pos,
					Analyzer: "cadyvet",
					Message:  fmt.Sprintf("cadyvet:%s directive requires a written justification", d.kind),
				})
			}
		default:
			p.diags = append(p.diags, &Diagnostic{
				Pos:      d.pos,
				Analyzer: "cadyvet",
				Message:  fmt.Sprintf("unknown cadyvet directive %q", d.kind),
			})
		}
	}
}

// --- shared type utilities -------------------------------------------------

// funcKey returns the stable cross-package key of a function object: the
// generic origin's fully qualified name, e.g.
// "cadycore/internal/comm.Sum" or "(*cadycore/internal/comm.Comm).Send".
func funcKey(fn *types.Func) string {
	return fn.Origin().FullName()
}

// staticCallee resolves the statically known callee of a call, if any.
// Interface method calls, calls through function values, builtins and
// conversions return nil.
func staticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if f, ok := info.Uses[fun].(*types.Func); ok {
			return f
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			if f, ok := sel.Obj().(*types.Func); ok {
				if sel.Kind() == types.MethodVal && isInterface(sel.Recv()) {
					return nil // dynamic dispatch
				}
				return f
			}
			return nil
		}
		// Package-qualified function: pkg.F.
		if f, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return f
		}
	}
	return nil
}

func isInterface(t types.Type) bool {
	_, ok := t.Underlying().(*types.Interface)
	return ok
}

// namedRecv returns the named receiver type of a method-value selection,
// unwrapping pointers, or nil.
func namedRecv(t types.Type) *types.Named {
	if p, ok := types.Unalias(t).(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := types.Unalias(t).(*types.Named)
	return n
}

// methodOn reports whether fn is a method whose receiver's named type is
// declared in a package named pkgName with type name typeName. Matching by
// package *name* (not path) keeps the analyzers testable on fixture packages
// while being unambiguous in this module.
func methodOn(fn *types.Func, pkgName, typeName string) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	n := namedRecv(sig.Recv().Type())
	if n == nil || n.Obj().Pkg() == nil {
		return false
	}
	return n.Obj().Pkg().Name() == pkgName && n.Obj().Name() == typeName
}

// enclosingFuncs returns, for every function declaration in the files, the
// declaration paired with its *types.Func object. Declarations without type
// information (blank funcs in broken code) are skipped.
func (p *Pass) enclosingFuncs() []funcDecl {
	var out []funcDecl
	for _, f := range p.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			obj, ok := p.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			out = append(out, funcDecl{decl: fd, obj: obj})
		}
	}
	return out
}

type funcDecl struct {
	decl *ast.FuncDecl
	obj  *types.Func
}
