package analysis

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"go/version"
	"hash/fnv"
	"io"
	"os"
	"runtime"
	"strings"
)

// This file implements the cmd/go vet tool protocol ("unitchecker" mode), so
// that the suite runs under
//
//	go vet -vettool=$(which cadyvet) ./...
//
// cmd/go invokes the tool once per package as
//
//	cadyvet [flags] $OBJDIR/vet.cfg
//
// after building the package's dependencies, and additionally probes it with
// -V=full (for the build cache tool ID) and -flags (for flag registration).
// The vet.cfg JSON (Config below) names the package's sources, the export
// data of its dependencies, and the "vetx" fact files produced by the tool's
// earlier runs over the direct imports.

// Config mirrors cmd/go/internal/work.vetConfig.
type Config struct {
	ID           string // e.g. "fmt [fmt.test]"
	Compiler     string // gc or gccgo
	Dir          string // package directory
	ImportPath   string
	GoFiles      []string
	NonGoFiles   []string
	IgnoredFiles []string

	ModulePath    string
	ModuleVersion string
	ImportMap     map[string]string // import path as written → canonical path
	PackageFile   map[string]string // canonical path → export data file
	Standard      map[string]bool   // canonical path → is stdlib

	PackageVetx map[string]string // canonical path → fact file of direct import
	VetxOnly    bool              // facts only; no diagnostics wanted
	VetxOutput  string            // where to write this package's facts

	GoVersion                 string
	SucceedOnTypecheckFailure bool
}

// Main implements the cadyvet command. It terminates the process.
func Main() {
	progname := "cadyvet"
	for _, arg := range os.Args[1:] {
		switch {
		case arg == "-V=full" || arg == "--V=full":
			// The build cache hashes this line as the tool's identity.
			fmt.Printf("%s version devel cadyvet-suite buildID=%s\n", progname, toolID())
			os.Exit(0)
		case arg == "-flags" || arg == "--flags":
			// No tool-specific flags.
			fmt.Println("[]")
			os.Exit(0)
		case arg == "-list" || arg == "--list":
			// Self-describing lint logs: print the enabled analyzers.
			for _, az := range All() {
				fmt.Printf("%-10s %s\n", az.Name, az.Doc)
			}
			os.Exit(0)
		case arg == "help" || arg == "-h" || arg == "-help" || arg == "--help":
			fmt.Fprintf(os.Stderr, "%s: static analysis suite for the cadycore module\n\n", progname)
			fmt.Fprintf(os.Stderr, "usage: go vet -vettool=$(command -v %s) ./...\n\nAnalyzers:\n", progname)
			for _, az := range All() {
				fmt.Fprintf(os.Stderr, "  %-10s %s\n", az.Name, az.Doc)
			}
			os.Exit(0)
		}
	}
	args := nonFlagArgs(os.Args[1:])
	if len(args) != 1 || !strings.HasSuffix(args[0], ".cfg") {
		fmt.Fprintf(os.Stderr, "%s: expected one *.cfg argument (run via go vet -vettool)\n", progname)
		os.Exit(2)
	}
	diags, err := runUnit(args[0])
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", progname, err)
		os.Exit(1)
	}
	if len(diags) > 0 {
		for _, d := range diags {
			fmt.Fprintf(os.Stderr, "%s: %s\n", d.Pos, d.Message)
		}
		os.Exit(2)
	}
	os.Exit(0)
}

// toolID derives a content hash of the running executable, so that the go
// command's build cache invalidates vet results when the tool changes.
func toolID() string {
	exe, err := os.Executable()
	if err != nil {
		return "unknown"
	}
	f, err := os.Open(exe)
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	// A 128-bit FNV-1a is enough for cache identity.
	h := fnv.New128a()
	if _, err := io.Copy(h, f); err != nil {
		return "unknown"
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

func nonFlagArgs(args []string) []string {
	var out []string
	for _, a := range args {
		if !strings.HasPrefix(a, "-") {
			out = append(out, a)
		}
	}
	return out
}

// runUnit analyzes the single package described by the vet.cfg file.
func runUnit(cfgFile string) ([]*Diagnostic, error) {
	b, err := os.ReadFile(cfgFile)
	if err != nil {
		return nil, err
	}
	var cfg Config
	if err := json.Unmarshal(b, &cfg); err != nil {
		return nil, fmt.Errorf("parsing %s: %v", cfgFile, err)
	}

	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range cfg.GoFiles {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			if cfg.SucceedOnTypecheckFailure {
				return finishSilently(&cfg)
			}
			return nil, err
		}
		files = append(files, f)
	}

	pkg, info, err := typecheckUnit(&cfg, fset, files)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return finishSilently(&cfg)
		}
		return nil, err
	}

	facts := NewFactStore()
	for path, file := range cfg.PackageVetx {
		facts.LoadPackageFile(path, file)
	}

	pass := NewPass(fset, files, pkg, info, facts)
	diags := pass.RunAll(All())

	if cfg.VetxOutput != "" {
		if err := facts.WriteFile(cfg.VetxOutput); err != nil {
			return nil, err
		}
	}
	if cfg.VetxOnly {
		return nil, nil
	}
	return diags, nil
}

// finishSilently honors SucceedOnTypecheckFailure: emit an empty fact file so
// dependents still find one, and report nothing.
func finishSilently(cfg *Config) ([]*Diagnostic, error) {
	if cfg.VetxOutput != "" {
		_ = NewFactStore().WriteFile(cfg.VetxOutput)
	}
	return nil, nil
}

// typecheckUnit type-checks the package against its compiled dependencies'
// export data, exactly as the compiler saw them.
func typecheckUnit(cfg *Config, fset *token.FileSet, files []*ast.File) (*types.Package, *types.Info, error) {
	compiler := cfg.Compiler
	if compiler == "" {
		compiler = "gc"
	}
	// The export-data importer receives canonical paths and loads the .a/.x
	// file recorded in the config.
	exp := importer.ForCompiler(fset, compiler, func(path string) (io.ReadCloser, error) {
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
	imp := importerFunc(func(importPath string) (*types.Package, error) {
		path, ok := cfg.ImportMap[importPath]
		if !ok {
			path = importPath
		}
		if path == "unsafe" {
			return types.Unsafe, nil
		}
		return exp.Import(path)
	})

	goarch := os.Getenv("GOARCH")
	if goarch == "" {
		goarch = runtime.GOARCH
	}
	tc := types.Config{
		Importer:  imp,
		Sizes:     types.SizesFor(compiler, goarch),
		GoVersion: version.Lang(cfg.GoVersion),
		Error:     func(error) {}, // collect all; first error returned below
	}
	info := newInfo()
	pkg, err := tc.Check(cfg.ImportPath, fset, files, info)
	if err != nil {
		return nil, nil, err
	}
	return pkg, info, nil
}

// newInfo allocates the full set of type-info maps the analyzers use.
func newInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
		Instances:  make(map[*ast.Ident]types.Instance),
	}
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
