package store

import (
	"io"
	"os"
)

// Filesystem seam. Every write-path file operation in the store — WAL
// append, snapshot encode, MANIFEST tmp+rename+dir-fsync rotation — goes
// through an FS, so a fault-injecting implementation (FaultFS) can fail
// any single syscall deterministically while the default (OS) compiles
// down to the os package with no indirection cost worth measuring against
// an fsync.
//
// The seam deliberately covers only what the store uses: open/create,
// temp files, rename, remove, mkdir, and directory fsync. Read-side
// convenience loaders (ReadSnapshotFile, ReadGraphFile) stay on the os
// package — recovery reads real bytes off a real disk, and the fault
// story is about writes that were acknowledged or torn.

// File is the subset of *os.File the store writes through.
type File interface {
	io.Reader
	io.Writer
	io.Seeker
	io.Closer
	Name() string
	Sync() error
	Truncate(size int64) error
	Stat() (os.FileInfo, error)
}

// FS abstracts the filesystem operations on the store's write path.
type FS interface {
	// OpenFile opens name like os.OpenFile.
	OpenFile(name string, flag int, perm os.FileMode) (File, error)
	// CreateTemp creates a temp file like os.CreateTemp.
	CreateTemp(dir, pattern string) (File, error)
	// Rename renames oldpath to newpath like os.Rename.
	Rename(oldpath, newpath string) error
	// Remove removes name like os.Remove.
	Remove(name string) error
	// MkdirAll creates a directory tree like os.MkdirAll.
	MkdirAll(path string, perm os.FileMode) error
	// SyncDir fsyncs a directory so a rename within it is durable.
	SyncDir(dir string) error
}

// OS is the default FS: the real filesystem via the os package.
var OS FS = osFS{}

type osFS struct{}

func (osFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	f, err := os.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (osFS) CreateTemp(dir, pattern string) (File, error) {
	f, err := os.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (osFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }
func (osFS) Remove(name string) error             { return os.Remove(name) }
func (osFS) MkdirAll(path string, perm os.FileMode) error {
	return os.MkdirAll(path, perm)
}

func (osFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// fsOrOS returns fsys, defaulting nil to the real filesystem.
func fsOrOS(fsys FS) FS {
	if fsys == nil {
		return OS
	}
	return fsys
}
