// Package diskio is a fixture dependency for cross-package crashsafe facts:
// Dump exports a RawWrite fact, Atomic a Blessed one. The package itself is
// not a persistence surface, so nothing is reported here.
package diskio

import "os"

// Dump writes state with a bare WriteFile — no fsync, no rename.
func Dump(path string, b []byte) error {
	return os.WriteFile(path, b, 0)
}

// Atomic is this fixture library's commit helper.
//
//cadyvet:blessed temp file in the destination dir, fsync, rename
func Atomic(dir, path string, b []byte) error {
	f, err := os.CreateTemp(dir, "t*")
	if err != nil {
		return err
	}
	if _, err := f.Write(b); err != nil {
		return err
	}
	if err := f.Sync(); err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return os.Rename(f.Name(), path)
}

// Scratch makes a scratch directory, as testing's TempDir does: a mkdir
// carries no RawWrite fact to its callers.
func Scratch(dir string) error {
	return os.MkdirAll(dir, 0o755)
}
