package faultio

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"

	"github.com/s3pg/s3pg/internal/ckpt"
)

// FS is a fault-injecting ckpt.FS: it wraps the real filesystem, applies a
// write Plan to every file created through it, and can fail the n-th
// create/sync/rename/dir-sync operation — the exact failure points of an
// atomic commit. The zero value injects nothing. FS is safe for concurrent
// use (the server commits from many workers through one FS); the per-file
// write Plans remain independent per created file.
type FS struct {
	// Plan is applied to the data written into each created file.
	Plan Plan
	// FailCreate, FailSync, FailRename, FailSyncDir fail the n-th such
	// operation (1-based) with ErrInjected. 0 disables.
	FailCreate, FailSync, FailRename, FailSyncDir int
	// TransientEvery makes every n-th filesystem operation (creates, syncs,
	// renames, and dir syncs share one counter) fail with ErrTransient — a
	// recoverable fault that a retry with backoff eventually clears, unlike
	// the per-file Plan faults whose schedule restarts with every new temp
	// file. 0 disables.
	TransientEvery int

	mu                                sync.Mutex
	fsOps                             int
	creates, syncs, renames, dirSyncs int
}

// nth reports whether this occurrence (post-increment of *count) is the one
// scheduled to fail. Callers must hold f.mu.
func nth(count *int, fail int) bool {
	*count++
	return fail > 0 && *count == fail
}

// op applies the shared-counter transient schedule and the per-kind hard
// schedule to one filesystem operation, returning the error to inject or nil.
func (f *FS) op(kind string, count *int, fail int, detail string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.fsOps++
	if te := f.TransientEvery; te > 0 && f.fsOps%te == 0 {
		return fmt.Errorf("%w: %s %s", ErrTransient, kind, detail)
	}
	if nth(count, fail) {
		return fmt.Errorf("%w: %s %s", ErrInjected, kind, detail)
	}
	return nil
}

// CreateTemp implements ckpt.FS.
func (f *FS) CreateTemp(dir, pattern string) (ckpt.File, error) {
	if err := f.op("create in", &f.creates, f.FailCreate, dir); err != nil {
		return nil, err
	}
	file, err := os.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return &faultFile{File: file, w: NewWriter(file, f.Plan), fs: f}, nil
}

// Rename implements ckpt.FS.
func (f *FS) Rename(oldpath, newpath string) error {
	if err := f.op("rename", &f.renames, f.FailRename, newpath); err != nil {
		return err
	}
	return os.Rename(oldpath, newpath)
}

// Remove implements ckpt.FS.
func (f *FS) Remove(name string) error { return os.Remove(name) }

// Chmod implements ckpt.FS.
func (f *FS) Chmod(name string, mode os.FileMode) error { return os.Chmod(name, mode) }

// SyncDir implements ckpt.FS.
func (f *FS) SyncDir(dir string) error {
	if err := f.op("sync dir", &f.dirSyncs, f.FailSyncDir, dir); err != nil {
		return err
	}
	return ckpt.SyncDir(dir)
}

// faultFile routes writes through the fault-injecting writer and syncs
// through the FS's sync schedule.
type faultFile struct {
	*os.File
	w  *Writer
	fs *FS
}

func (f *faultFile) Write(p []byte) (int, error) { return f.w.Write(p) }

func (f *faultFile) Sync() error {
	if err := f.fs.op("sync", &f.fs.syncs, f.fs.FailSync, f.Name()); err != nil {
		return err
	}
	return f.File.Sync()
}

// envFS is the environment variable both binaries read their commit
// filesystem from: unset, commits go to the real filesystem; set, through a
// fault-injecting FS built from its ParseFS spec, so the robustness and
// chaos tests can drive the real binaries.
const envFS = "S3PG_FAULT_FS"

// FSFromEnv returns the filesystem S3PG_FAULT_FS names and the spec it was
// built from: ckpt.OSFS and "" when the variable is unset. A malformed spec
// is an error that names the variable. The FS counts its operations, so a
// process builds it once and routes every commit through that one value.
func FSFromEnv() (ckpt.FS, string, error) {
	spec := os.Getenv(envFS)
	if spec == "" {
		return ckpt.OSFS, "", nil
	}
	fsys, err := ParseFS(spec)
	if err != nil {
		return nil, spec, fmt.Errorf("%s: %v", envFS, err)
	}
	return fsys, spec, nil
}

// ParseFS builds a fault-injecting FS from a "k=v,k=v" spec — the format of
// S3PG_FAULT_FS, e.g. "seed=7,shortevery=3,failsync=1" or "fstransientevery=4".
func ParseFS(spec string) (*FS, error) {
	fsys := &FS{}
	for _, kv := range strings.Split(spec, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(kv), "=")
		if !ok {
			return nil, fmt.Errorf("faultio: malformed entry %q", kv)
		}
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("faultio: entry %q: %v", kv, err)
		}
		switch k {
		case "seed":
			fsys.Plan.Seed = n
		case "shortevery":
			fsys.Plan.ShortEvery = int(n)
		case "transientevery":
			fsys.Plan.TransientEvery = int(n)
		case "failat":
			fsys.Plan.FailAtByte = n
		case "failcreate":
			fsys.FailCreate = int(n)
		case "failsync":
			fsys.FailSync = int(n)
		case "failrename":
			fsys.FailRename = int(n)
		case "failsyncdir":
			fsys.FailSyncDir = int(n)
		case "fstransientevery":
			fsys.TransientEvery = int(n)
		default:
			return nil, fmt.Errorf("faultio: unknown key %q", k)
		}
	}
	return fsys, nil
}
