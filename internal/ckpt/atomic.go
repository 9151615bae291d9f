// Package ckpt provides the crash-safety substrate of the pipeline: atomic
// file commits (temp file in the destination directory → Sync → Rename →
// directory sync), so a reader of the destination path never observes a
// torn file. An interrupted run leaves each output complete or absent and is
// recovered by running it again. A scratch file (WriteScratchFileFS) takes
// the same path without the fsyncs.
package ckpt

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"github.com/s3pg/s3pg/internal/obs"
)

// Commit observability counters (obs.Default registry).
var (
	cCommits      = obs.Default.Counter("ckpt.commits")
	cCommitBytes  = obs.Default.Counter("ckpt.commit_bytes")
	cCommitAborts = obs.Default.Counter("ckpt.commit_aborts")
)

// File is the writable handle the atomic committer and the WAL need: the
// subset of *os.File they use, so tests can substitute fault-injecting
// files. Truncate and Seek are the WAL's, which cuts a retracted record off
// the end of its segment.
type File interface {
	io.WriteSeeker
	Sync() error
	Close() error
	Name() string
	Truncate(size int64) error
}

// FS abstracts the filesystem operations behind an atomic commit. OSFS is
// the real implementation; internal/faultio provides a fault-injecting one.
type FS interface {
	CreateTemp(dir, pattern string) (File, error)
	Rename(oldpath, newpath string) error
	Remove(name string) error
	Chmod(name string, mode os.FileMode) error
	// SyncDir fsyncs the directory itself, making a preceding rename in it
	// durable: without it, a power loss after the rename can roll the
	// directory entry back to the old file even though the data blocks of
	// the new one are on disk.
	SyncDir(dir string) error
}

// osFS is the passthrough FS over the real filesystem.
type osFS struct{}

func (osFS) CreateTemp(dir, pattern string) (File, error) { return os.CreateTemp(dir, pattern) }
func (osFS) Rename(oldpath, newpath string) error         { return os.Rename(oldpath, newpath) }
func (osFS) Remove(name string) error                     { return os.Remove(name) }
func (osFS) Chmod(name string, mode os.FileMode) error    { return os.Chmod(name, mode) }
func (osFS) SyncDir(dir string) error                     { return SyncDir(dir) }

// SyncDir opens dir and fsyncs it, flushing directory entries (renames,
// creates) to stable storage.
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

// OSFS is the real filesystem.
var OSFS FS = osFS{}

// WriteFileAtomic writes the output produced by fn to path atomically: the
// bytes go to a temporary file in path's directory, are flushed and fsynced,
// the file is renamed over path only after everything succeeded, and the
// parent directory is fsynced so the rename itself survives power loss. On
// any failure before the rename the temporary file is removed and path is
// left untouched — a reader of path therefore observes either the previous
// complete file (or its absence) or the new complete file, never a prefix.
func WriteFileAtomic(path string, perm os.FileMode, fn func(io.Writer) error) error {
	return WriteFileAtomicFS(OSFS, path, perm, fn)
}

// WriteFileAtomicFS is WriteFileAtomic over an explicit FS, the seam the
// fault-injection tests use to prove the no-torn-outputs property.
func WriteFileAtomicFS(fsys FS, path string, perm os.FileMode, fn func(io.Writer) error) error {
	return writeFile(fsys, path, perm, true, fn)
}

// WriteScratchFileFS writes a scratch file — one only the writing process
// reads, so a crash leaves it garbage whatever it holds — as
// WriteFileAtomicFS does, except that neither the file nor the directory is
// fsynced and the file keeps its temporary's mode (0600). path still holds
// the whole output or nothing, and a failure before the rename removes the
// temporary.
func WriteScratchFileFS(fsys FS, path string, fn func(io.Writer) error) error {
	return writeFile(fsys, path, 0, false, fn)
}

// writeFile is the commit behind both: durable adds the two fsyncs and the
// chmod to perm.
func writeFile(fsys FS, path string, perm os.FileMode, durable bool, fn func(io.Writer) error) (err error) {
	dir, base := filepath.Split(path)
	if dir == "" {
		dir = "."
	}
	f, err := fsys.CreateTemp(dir, base+".tmp-*")
	if err != nil {
		return fmt.Errorf("ckpt: atomic %s: %w", path, err)
	}
	tmp := f.Name()
	committed := false
	var written int64
	defer func() {
		if !committed {
			cCommitAborts.Inc()
			fsys.Remove(tmp) // best effort; the temp name never collides with path
		}
	}()
	bw := bufio.NewWriterSize(countWriter{f, &written}, 1<<16)
	if err := fn(bw); err != nil {
		f.Close()
		return fmt.Errorf("ckpt: atomic %s: %w", path, err)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("ckpt: atomic %s: %w", path, err)
	}
	if durable {
		if err := f.Sync(); err != nil {
			f.Close()
			return fmt.Errorf("ckpt: atomic %s: sync: %w", path, err)
		}
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("ckpt: atomic %s: close: %w", path, err)
	}
	if durable {
		if err := fsys.Chmod(tmp, perm); err != nil {
			return fmt.Errorf("ckpt: atomic %s: chmod: %w", path, err)
		}
	}
	if err := fsys.Rename(tmp, path); err != nil {
		return fmt.Errorf("ckpt: atomic %s: rename: %w", path, err)
	}
	// The rename happened, so the temp file no longer exists under its old
	// name: the abort cleanup must not run even if the directory sync below
	// fails (the new content is visible, just not yet durable).
	committed = true
	if durable {
		if err := fsys.SyncDir(dir); err != nil {
			return fmt.Errorf("ckpt: atomic %s: sync dir: %w", path, err)
		}
	}
	cCommits.Inc()
	cCommitBytes.Add(written)
	return nil
}

// countWriter feeds the commit-bytes counter as data flows to the file.
type countWriter struct {
	w io.Writer
	n *int64
}

func (c countWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	*c.n += int64(n)
	return n, err
}
