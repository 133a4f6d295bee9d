//cadyvet:persistence snapshot files are the crash-recovery source of truth; every durable write must go through the blessed temp+fsync+rename+dir-fsync helpers below
package checkpoint

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Store is a shared artifact store for step-stamped snapshots, keyed by an
// opaque job key. It is the durability layer a fleet of backends shares: any
// backend can Put checkpoints as a job progresses, and after the backend dies
// another one can Latest the newest valid snapshot and resume. Implementations
// must be safe for concurrent use from multiple goroutines and — for
// file-backed stores — from multiple processes.
type Store interface {
	// Put durably records the snapshot for key at the given step boundary.
	// Older snapshots of the same key may be garbage-collected.
	Put(key string, step int, gl *Global) error
	// Latest returns the newest readable snapshot for key and its step.
	// A missing key returns ErrNoSnapshot.
	Latest(key string) (*Global, int, error)
}

// ErrNoSnapshot is returned by Store.Latest when the key has no snapshot.
var ErrNoSnapshot = errors.New("checkpoint: no snapshot for key")

// DirStore is a Store over one directory: each snapshot is a self-committing
// file "<key>@<step>.ck" written with the temp+fsync+rename+dir-fsync
// protocol, so the filename itself carries the commit (a crash mid-write
// leaves only a *.tmp, never a torn .ck) and the format's CRC64 catches
// anything subtler. Latest walks steps downward until a file verifies, which
// also makes a corrupted newest file fall back to the previous boundary.
type DirStore struct {
	root string
}

// NewDirStore creates (if needed, durably) and opens a directory store.
func NewDirStore(root string) (*DirStore, error) {
	if err := MkdirDurable(root); err != nil {
		return nil, err
	}
	return &DirStore{root: root}, nil
}

// keyPattern restricts keys to a filename-safe charset; '@' stays reserved
// as the key/step separator.
func validKey(key string) error {
	if key == "" || len(key) > 128 {
		return fmt.Errorf("checkpoint: store key %q must be 1..128 chars", key)
	}
	for _, c := range key {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			return fmt.Errorf("checkpoint: store key %q has invalid char %q (want [a-zA-Z0-9._-])", key, c)
		}
	}
	return nil
}

func (d *DirStore) path(key string, step int) string {
	return filepath.Join(d.root, fmt.Sprintf("%s@%08d.ck", key, step))
}

// Put writes the snapshot durably, then prunes older boundaries of the same
// key (best-effort: a failed unlink costs disk, not correctness).
func (d *DirStore) Put(key string, step int, gl *Global) error {
	if err := validKey(key); err != nil {
		return err
	}
	if step < 0 {
		return fmt.Errorf("checkpoint: negative step %d for key %s", step, key)
	}
	if err := WriteAtomic(d.path(key, step), gl); err != nil {
		return err
	}
	steps, err := d.steps(key)
	if err != nil {
		return nil // the write committed; pruning is best-effort
	}
	for _, s := range steps {
		if s < step {
			os.Remove(d.path(key, s))
		}
	}
	return nil
}

// Latest returns the newest snapshot that reads back valid.
func (d *DirStore) Latest(key string) (*Global, int, error) {
	if err := validKey(key); err != nil {
		return nil, 0, err
	}
	steps, err := d.steps(key)
	if err != nil {
		return nil, 0, err
	}
	for i := len(steps) - 1; i >= 0; i-- {
		if gl, err := ReadFile(d.path(key, steps[i])); err == nil {
			return gl, steps[i], nil
		}
	}
	return nil, 0, fmt.Errorf("%w: %s", ErrNoSnapshot, key)
}

// steps returns the committed step boundaries for key, ascending.
func (d *DirStore) steps(key string) ([]int, error) {
	ents, err := os.ReadDir(d.root)
	if err != nil {
		return nil, err
	}
	var steps []int
	for _, e := range ents {
		k, s, ok := parseSnapName(e.Name())
		if ok && k == key {
			steps = append(steps, s)
		}
	}
	sort.Ints(steps)
	return steps, nil
}

// parseSnapName splits "<key>@<step>.ck" into its parts.
func parseSnapName(name string) (key string, step int, ok bool) {
	if !strings.HasSuffix(name, ".ck") {
		return "", 0, false
	}
	base := strings.TrimSuffix(name, ".ck")
	at := strings.LastIndexByte(base, '@')
	if at <= 0 {
		return "", 0, false
	}
	n, err := strconv.Atoi(base[at+1:])
	if err != nil || n < 0 {
		return "", 0, false
	}
	return base[:at], n, true
}

// --- durable write helpers --------------------------------------------------
//
// The crash-safety protocol every durable artifact in the module uses:
// write a uniquely named temp file in the destination directory, fsync it,
// rename it over the target, fsync the parent directory. A crash at any
// point leaves either the old or the new file, never a torn or lost one,
// and writers racing on one path each rename a whole file of their own.

// WriteAtomic durably writes one snapshot file with the protocol above.
func WriteAtomic(path string, gl *Global) error { return commitTmp(path, gl.Write) }

// WriteFileAtomic durably replaces path with b (same protocol).
func WriteFileAtomic(path string, b []byte) error {
	return commitTmp(path, func(w io.Writer) error {
		_, err := w.Write(b)
		return err
	})
}

// commitTmp writes path's new content through write into a fresh
// "<base>.*.tmp" next to it, then fsyncs, closes, renames it over path and
// fsyncs the directory. Recovery sweeps a *.tmp a crash strands; nothing
// reads one.
//
//cadyvet:blessed the one commit helper: os.CreateTemp in the destination dir, payload, fsync, close, rename over the target, parent-dir fsync
func commitTmp(path string, write func(io.Writer) error) error {
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".*.tmp")
	if err != nil {
		return err
	}
	tmp := f.Name()
	if err = f.Chmod(0o644); err == nil {
		err = write(f)
	}
	if err == nil {
		err = f.Sync()
	}
	if err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return SyncDir(filepath.Dir(path))
}

// MkdirDurable creates dir and any missing parents, fsyncing the parent of
// each level it creates so the new entry survives a power loss; on an
// existing directory it does nothing.
//
//cadyvet:blessed durable mkdir: each created level's parent directory is fsynced
func MkdirDurable(dir string) error {
	if fi, err := os.Stat(dir); err == nil && fi.IsDir() {
		return nil
	}
	parent := filepath.Dir(dir)
	if parent != dir {
		if err := MkdirDurable(parent); err != nil {
			return err
		}
	}
	if err := os.Mkdir(dir, 0o755); err != nil {
		if fi, serr := os.Stat(dir); serr != nil || !fi.IsDir() {
			return err
		}
		// A racing creator made it; its entry is synced below all the same.
	}
	return SyncDir(parent)
}

// SyncDir fsyncs a directory so a just-renamed entry survives a power loss.
//
//cadyvet:blessed directory fsync making a just-renamed entry durable
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
