package analysis

// Fixture-based analyzer tests, in the style of x/tools' analysistest: each
// directory under testdata/src is one package; fixture files carry
// `// want "regexp"` comments on the lines where a diagnostic is expected.
// Fixture packages may import each other by bare path (resolved inside
// testdata/src), which exercises the cross-package fact flow; they must not
// import anything else (no stdlib — fixtures are typechecked from source
// without export data).

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// fixtureLoader typechecks testdata packages recursively and computes their
// facts, mimicking the per-package fact propagation of the vet protocol.
type fixtureLoader struct {
	t     *testing.T
	root  string // testdata/src
	fset  *token.FileSet
	pkgs  map[string]*types.Package
	facts *FactStore
	// files of the package under test (for want extraction)
	files map[string][]*ast.File
	// diags collected per package path
	diags map[string][]*Diagnostic
}

func newFixtureLoader(t *testing.T) *fixtureLoader {
	return &fixtureLoader{
		t:     t,
		root:  filepath.Join("testdata", "src"),
		fset:  token.NewFileSet(),
		pkgs:  make(map[string]*types.Package),
		facts: NewFactStore(),
		files: make(map[string][]*ast.File),
		diags: make(map[string][]*Diagnostic),
	}
}

func (l *fixtureLoader) Import(path string) (*types.Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	dir := filepath.Join(l.root, path)
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("fixture package %q not found: %v", path, err)
	}
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	tc := types.Config{Importer: l}
	info := newInfo()
	pkg, err := tc.Check(path, l.fset, files, info)
	if err != nil {
		return nil, err
	}
	l.pkgs[path] = pkg
	l.files[path] = files

	// Run the suite over the dependency too, so its facts feed importers —
	// exactly like a VetxOnly run in the real protocol.
	depFacts := NewFactStore()
	for p, f := range l.facts.imported {
		depFacts.AddPackage(p, f)
	}
	pass := NewPass(l.fset, files, pkg, info, depFacts)
	l.diags[path] = pass.RunAll(All())
	l.facts.AddPackage(path, depFacts.Current)
	return pkg, nil
}

// want describes one expectation parsed from a fixture comment.
type want struct {
	file    string
	line    int
	re      *regexp.Regexp
	raw     string
	matched bool
}

// A `// want "re"` comment expects a diagnostic on its own line; a
// `// want-above "re"` comment expects one on the previous line (used when
// the diagnostic position is itself a comment line, e.g. a malformed
// directive, leaving no room for a same-line want).
var wantRE = regexp.MustCompile(`// want(-above)? (.*)$`)
var wantArgRE = regexp.MustCompile(`"((?:[^"\\]|\\.)*)"`)

func parseWants(t *testing.T, fset *token.FileSet, files []*ast.File) []*want {
	var wants []*want
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := fset.Position(c.Slash)
				if m[1] == "-above" {
					pos.Line--
				}
				args := wantArgRE.FindAllStringSubmatch(m[2], -1)
				if len(args) == 0 {
					t.Errorf("%s: malformed want comment: %s", pos, c.Text)
					continue
				}
				for _, a := range args {
					pat := strings.ReplaceAll(a[1], `\"`, `"`)
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Errorf("%s: bad want pattern %q: %v", pos, a[1], err)
						continue
					}
					wants = append(wants, &want{file: pos.Filename, line: pos.Line, re: re, raw: pat})
				}
			}
		}
	}
	return wants
}

// runFixture analyzes one fixture package and checks its diagnostics against
// the // want comments of every file in the package.
func runFixture(t *testing.T, path string) {
	t.Helper()
	l := newFixtureLoader(t)
	if _, err := l.Import(path); err != nil {
		t.Fatalf("loading fixture %q: %v", path, err)
	}
	diags := l.diags[path]
	wants := parseWants(t, l.fset, l.files[path])

	used := make([]bool, len(diags))
	for _, w := range wants {
		for i, d := range diags {
			if used[i] || d.Pos.Filename != w.file || d.Pos.Line != w.line {
				continue
			}
			if w.re.MatchString(d.Message) {
				used[i] = true
				w.matched = true
				break
			}
		}
		if !w.matched {
			t.Errorf("%s:%d: no diagnostic matching %q", w.file, w.line, w.raw)
		}
	}
	for i, d := range diags {
		if !used[i] {
			t.Errorf("%s: unexpected diagnostic: [%s] %s", d.Pos, d.Analyzer, d.Message)
		}
	}
}

func TestCommSymFixture(t *testing.T)          { runFixture(t, "commsym") }
func TestCommSymTransitive(t *testing.T)       { runFixture(t, "commsym_x") }
func TestDetOrderFixture(t *testing.T)         { runFixture(t, "detorder") }
func TestDirectiveHygieneFixture(t *testing.T) { runFixture(t, "directives") }
func TestGuardedByFixture(t *testing.T)        { runFixture(t, "guardedby") }
func TestGuardedByCrossPkg(t *testing.T)       { runFixture(t, "guardedby_x") }
func TestCrashSafeFixture(t *testing.T)        { runFixture(t, "crashsafe") }
func TestCrashSafeCrossPkg(t *testing.T)       { runFixture(t, "crashsafe_x") }
func TestGoLeakFixture(t *testing.T)           { runFixture(t, "goleak") }

// TestFixtureDepsClean ensures the shared fixture stand-ins for comm/topo are
// themselves quiet (they model the library, not findings).
func TestFixtureDepsClean(t *testing.T) {
	for _, path := range []string{"comm", "topo", "sync", "os", "time", "atomic", "gstore", "diskio"} {
		l := newFixtureLoader(t)
		if _, err := l.Import(path); err != nil {
			t.Fatalf("loading fixture %q: %v", path, err)
		}
		for _, d := range l.diags[path] {
			t.Errorf("%s: unexpected diagnostic in dep fixture %s: %s", d.Pos, path, d.Message)
		}
	}
}
