// Package os is a fixture stand-in for the standard library's os: crashsafe
// matches raw filesystem mutations by package name and function name, so this
// minimal replica exercises it without export data.
package os

// File mirrors os.File.
type File struct{ name string }

func (f *File) Name() string                { return f.name }
func (f *File) Write(b []byte) (int, error) { return len(b), nil }
func (f *File) Sync() error                 { return nil }
func (f *File) Close() error                { return nil }

func Create(name string) (*File, error)                          { return nil, nil }
func Open(name string) (*File, error)                            { return nil, nil }
func OpenFile(name string, flag int, perm uint32) (*File, error) { return nil, nil }
func CreateTemp(dir, pattern string) (*File, error)              { return nil, nil }
func Rename(oldpath, newpath string) error                       { return nil }
func Remove(name string) error                                   { return nil }
func WriteFile(name string, data []byte, perm uint32) error      { return nil }
func ReadFile(name string) ([]byte, error)                       { return nil, nil }
func Mkdir(name string, perm uint32) error                       { return nil }
func MkdirAll(path string, perm uint32) error                    { return nil }
