// Package durable is the crash-safe snapshot archive behind the serving
// layer: serve snapshots are encoded to a compact checksummed binary
// format (codec.go) and written to disk via temp-file + fsync + atomic
// rename (store.go), one file per (world fingerprint, date) key, named
// after the key; the directory listing is the index. A crash in the
// middle of a write leaves the key's previous archive in place, so a
// daemon restart warm-starts from what survived. Corrupt or truncated
// archives are detected on load (CRC-32C footer, bounds-checked decode)
// and quarantined, and the caller peer-syncs or builds that snapshot
// cold. A retention janitor keeps the archive directory under a size
// budget.
//
// All file I/O goes through the FS interface so chaos tests can inject
// the failure modes real disks produce (short writes, torn renames,
// ENOSPC, EIO, failed fsync, bit rot on read) via FaultFS. Production
// code always runs on OSFS. See DESIGN.md, "Archive".
package durable

import (
	"io"
	"io/fs"
	"os"
)

// File is the writable handle the store uses for archive writes: a
// plain writer plus the Sync barrier the durability protocol depends
// on.
type File interface {
	io.Writer
	// Sync flushes the file's data to stable storage (fsync).
	Sync() error
	Close() error
}

// FS is the slice of filesystem the store needs. Paths are passed
// through verbatim (the store always builds them with filepath.Join
// under its directory). Implementations: OSFS (production), FaultFS
// (chaos tests).
type FS interface {
	MkdirAll(dir string) error
	// Create opens name for writing, truncating any existing file.
	Create(name string) (File, error)
	Open(name string) (io.ReadCloser, error)
	Rename(oldname, newname string) error
	Remove(name string) error
	Stat(name string) (fs.FileInfo, error)
	ReadDir(dir string) ([]fs.DirEntry, error)
	// SyncDir fsyncs the directory itself, making a preceding rename
	// durable across power loss.
	SyncDir(dir string) error
}

// OSFS is the production FS: a thin veneer over package os.
type OSFS struct{}

func (OSFS) MkdirAll(dir string) error { return os.MkdirAll(dir, 0o755) }

func (OSFS) Create(name string) (File, error) {
	f, err := os.OpenFile(name, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	return osFile{f}, nil
}

// osFile is a file written under OSFS. Once synced, its pages are
// released from the page cache: an archive is written for the next
// boot and not read back by the process that wrote it, so every save
// would otherwise take megabytes of new cache pages, which costs an
// order of magnitude more than rewriting pages just released.
type osFile struct{ *os.File }

func (f osFile) Sync() error {
	if err := f.File.Sync(); err != nil {
		return err
	}
	dropPageCache(f.File)
	return nil
}

func (OSFS) Open(name string) (io.ReadCloser, error) { return os.Open(name) }

func (OSFS) Rename(oldname, newname string) error { return os.Rename(oldname, newname) }

func (OSFS) Remove(name string) error { return os.Remove(name) }

func (OSFS) Stat(name string) (fs.FileInfo, error) { return os.Stat(name) }

func (OSFS) ReadDir(dir string) ([]fs.DirEntry, error) { return os.ReadDir(dir) }

func (OSFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	serr := d.Sync()
	cerr := d.Close()
	if serr != nil {
		return serr
	}
	return cerr
}
