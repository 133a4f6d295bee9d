package analysis

import (
	"encoding/json"
	"os"
)

// FuncFact is the exported per-function summary. Facts are self-contained
// (reasons embed the full transitive explanation), so only the facts of
// direct imports are needed when analyzing a package — which is exactly what
// cmd/go's vet fact plumbing provides.
type FuncFact struct {
	// Collective reports that the function (transitively) executes a
	// symmetric communication operation: a comm.Comm collective or a
	// topo.Exchanger halo exchange. commsym flags rank-conditional calls to
	// such functions.
	Collective bool `json:"coll,omitempty"`
	// NeedsLock names the receiver field whose mutex the caller must hold
	// when calling this method (//cadyvet:locked, receiver-relative).
	// guardedby checks call sites — including cross-package ones — against
	// the caller's held-lock set.
	NeedsLock string `json:"needslock,omitempty"`
	// Blessed marks a function that implements the raw crash-safe commit
	// protocol (//cadyvet:blessed): raw filesystem mutations inside it are
	// the protocol, and calls to it satisfy crashsafe.
	Blessed bool `json:"blessed,omitempty"`
	// RawWrite explains a raw (unblessed) durable-path mutation the function
	// transitively performs, e.g. "os.Rename at checkpoint/store.go:88".
	// Empty for functions that only write through blessed helpers.
	RawWrite string `json:"rawwrite,omitempty"`
}

// PkgFacts is the fact file content for one package.
type PkgFacts struct {
	Funcs map[string]FuncFact `json:"funcs"`
}

// FactStore resolves function facts across package boundaries.
type FactStore struct {
	imported map[string]PkgFacts // package path → facts
	// Current receives the facts computed for the package under analysis.
	Current PkgFacts
}

// NewFactStore returns an empty store.
func NewFactStore() *FactStore {
	return &FactStore{
		imported: make(map[string]PkgFacts),
		Current:  PkgFacts{Funcs: make(map[string]FuncFact)},
	}
}

// AddPackage registers the facts of a dependency.
func (s *FactStore) AddPackage(path string, f PkgFacts) { s.imported[path] = f }

// LoadPackageFile reads a dependency's vetx fact file. Missing or malformed
// files register an empty fact set (their functions then resolve to "no
// fact") — analysis must degrade, not fail.
func (s *FactStore) LoadPackageFile(path, file string) {
	b, err := os.ReadFile(file)
	if err != nil {
		return
	}
	var f PkgFacts
	if json.Unmarshal(b, &f) != nil || f.Funcs == nil {
		return
	}
	s.imported[path] = f
}

// Imported looks up the fact for a function of a dependency by package path
// and funcKey.
func (s *FactStore) Imported(pkgPath, key string) (FuncFact, bool) {
	f, ok := s.imported[pkgPath].Funcs[key]
	return f, ok
}

// Put records a fact for the package under analysis.
func (s *FactStore) Put(key string, f FuncFact) { s.Current.Funcs[key] = f }

// WriteFile serializes the current package's facts (the vetx output of the
// unitchecker protocol).
func (s *FactStore) WriteFile(file string) error {
	b, err := json.Marshal(s.Current)
	if err != nil {
		return err
	}
	return os.WriteFile(file, b, 0o666)
}
