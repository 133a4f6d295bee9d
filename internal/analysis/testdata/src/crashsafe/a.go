// Package crashsafe exercises the crashsafe analyzer: raw durable writes,
// temp-dir placement, and discarded Sync/Close/Rename errors.
//
//cadyvet:persistence job state files under the fixture store directory
package crashsafe

import "os"

// commit is the one sanctioned durable write path of this fixture.
//
//cadyvet:blessed implements the temp+fsync+rename commit protocol
func commit(dir, path string, data []byte) error {
	f, err := os.CreateTemp(dir, "tmp*")
	if err != nil {
		return err
	}
	defer f.Close() // backstop; the explicit Close below is checked
	if _, err := f.Write(data); err != nil {
		return err
	}
	if err := f.Sync(); err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return os.Rename(dir+"/tmp", path)
}

func putGood(dir, key string, data []byte) error {
	return commit(dir, dir+"/"+key, data)
}

func rawCreate(path string) {
	f, _ := os.Create(path) // want "raw os.Create bypasses the blessed commit helpers"
	f.Close()               // want "Close error discarded on write handle f"
}

func rawRename(a, b string) {
	os.Rename(a, b) // want "raw os.Rename bypasses the blessed commit helpers" "os.Rename error discarded on a persistence write path"
}

func sysTemp() {
	os.CreateTemp("", "x*") // want "raw os.CreateTemp bypasses the blessed commit helpers" "temp file created in the system temp dir"
}

// blessedSysTemp is blessed yet still misplaces its temp file.
//
//cadyvet:blessed fixture helper with a deliberate temp-dir bug
func blessedSysTemp() (*os.File, error) {
	return os.CreateTemp("", "x*") // want "temp file created in the system temp dir"
}

// uncheckedSync is blessed; discarded fsync errors are still findings.
//
//cadyvet:blessed fixture helper exercising the discarded-sync check
func uncheckedSync(f *os.File) {
	f.Sync() // want "Sync error discarded on a persistence write path"
}

func helper(path string) error {
	return os.Rename(path+".tmp", path) // want "raw os.Rename bypasses the blessed commit helpers"
}

func viaHelper(path string) {
	// The raw event is reported once, inside helper — not again here.
	_ = helper(path)
}

func scratch(path string) {
	//cadyvet:volatile scratch probe file, loss is safe by design
	os.WriteFile(path, nil, 0)
}

func rawMkdirAll(dir string) error {
	return os.MkdirAll(dir, 0o755) // want "raw os.MkdirAll bypasses the blessed commit helpers"
}

func rawMkdir(dir string) {
	_ = os.Mkdir(dir, 0o755) // want "raw os.Mkdir bypasses the blessed commit helpers"
}

// mkdirDurable is this fixture's durable mkdir: create, then fsync the
// parent (elided in the fixture).
//
//cadyvet:blessed creates the directory and fsyncs its parent
func mkdirDurable(dir string) error {
	return os.MkdirAll(dir, 0o755)
}

func viaDurableMkdir(dir string) error {
	return mkdirDurable(dir)
}

func readsAreFine(path string) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close() // read handle: Close error carries no data-loss signal
	return os.ReadFile(path)
}
