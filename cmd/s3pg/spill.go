package main

// Out-of-core support for the data path (DESIGN.md §10): when -max-mem is
// set, the loader asks a memory-pressure governor every 4096 statements, at
// any -workers, and the governor spills the graph's dictionary, triple log,
// and posting lists to CRC-framed on-disk segments past the watermark; the
// run continues over paged reads instead of dying.

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"github.com/s3pg/s3pg"
	"github.com/s3pg/s3pg/internal/ckpt"
	"github.com/s3pg/s3pg/internal/faultio"
	"github.com/s3pg/s3pg/internal/rdf"
)

// memFlags carries the data subcommand's heap budget.
type memFlags struct {
	maxMemMB int
	spill    string
}

func addMemFlags(fs *flag.FlagSet) *memFlags {
	mem := &memFlags{}
	fs.IntVar(&mem.maxMemMB, "max-mem", 0, "soft heap watermark in `MiB` (0 = off), checked every 4096 statements at any -workers: past it the graph spills to disk (-spill) and the run continues out-of-core")
	fs.StringVar(&mem.spill, "spill", "auto", "where -max-mem spills: auto (beside the data file) or a `directory`")
	return mem
}

func (mem *memFlags) validate() error {
	// "off" once disabled spilling, when -max-mem could instead stop a run
	// at the watermark; a directory of that name is refused, not used.
	if mem.spill == "" || mem.spill == "off" {
		return usagef("-spill must be auto or a directory")
	}
	if mem.maxMemMB < 0 {
		return usagef("-max-mem must be non-negative")
	}
	return nil
}

// spillDir resolves the spill directory for a run over dataPath.
func (mem *memFlags) spillDir(dataPath string) string {
	if mem.spill == "auto" {
		return dataPath + ".spill"
	}
	return mem.spill
}

// retryFS retries transient faults around each filesystem operation of a
// spill commit — the same per-commit resilience the outputs get from
// commitAtomic. Without it, one transient fault anywhere in a spill's
// commit would restart the entire spill, which under a deterministic
// fault schedule never converges.
type retryFS struct {
	inner ckpt.FS
}

func (r retryFS) retry(fn func() error) error {
	return faultio.Retry(context.Background(), commitRetryPolicy(), fn)
}

func (r retryFS) CreateTemp(dir, pattern string) (ckpt.File, error) {
	var f ckpt.File
	err := r.retry(func() error {
		var cerr error
		f, cerr = r.inner.CreateTemp(dir, pattern)
		return cerr
	})
	if err != nil {
		return nil, err
	}
	return retryFile{f, r}, nil
}

func (r retryFS) Rename(oldpath, newpath string) error {
	return r.retry(func() error { return r.inner.Rename(oldpath, newpath) })
}

func (r retryFS) Remove(name string) error { return r.inner.Remove(name) }

func (r retryFS) Chmod(name string, mode os.FileMode) error {
	return r.retry(func() error { return r.inner.Chmod(name, mode) })
}

func (r retryFS) SyncDir(dir string) error {
	return r.retry(func() error { return r.inner.SyncDir(dir) })
}

// retryFile retries transient sync faults; an injected sync fault fires
// before the real fsync, so the retry syncs the same complete file.
type retryFile struct {
	ckpt.File
	r retryFS
}

func (f retryFile) Sync() error { return f.r.retry(func() error { return f.File.Sync() }) }

// spillCommitFS is the filesystem spill writes go through: the process-wide
// commit FS (possibly fault-injecting via S3PG_FAULT_FS) behind per-op
// transient retries.
func spillCommitFS() ckpt.FS { return retryFS{inner: commitFS()} }

// governor returns the run's -max-mem governor and the load hook that asks
// it, after every 4096th statement and once at the end, whether the heap is
// past the watermark, spilling the graph when it is; nil and nil without a
// budget. A failed Spill leaves the graph untouched (the in-memory swap
// happens only after the segment commits), so retrying a transient fault is
// safe: the retry writes the same contents again.
func (mem *memFlags) governor(ctx context.Context, dataPath string, stderr io.Writer) (*rdf.Governor, func(*rdf.Graph) error) {
	if mem.maxMemMB <= 0 {
		return nil, nil
	}
	gv := rdf.NewGovernor(rdf.SpillConfig{
		Dir:    mem.spillDir(dataPath),
		FS:     spillCommitFS(),
		HighMB: mem.maxMemMB,
	})
	return gv, func(g *rdf.Graph) error {
		var spilled bool
		err := faultio.Retry(ctx, commitRetryPolicy(), func() error {
			var gerr error
			spilled, gerr = gv.Maybe(g)
			return gerr
		})
		if err != nil {
			return fmt.Errorf("spill: %w", err)
		}
		if spilled {
			fmt.Fprintf(stderr, "s3pg: heap over -max-mem %d MiB: spilled %d triple slots to %s, continuing out-of-core\n",
				mem.maxMemMB, g.NumSlots(), gv.Dir())
		}
		return nil
	}
}

// cleanupSpill removes the run's spill directory after the outputs are
// committed: spilled state is scratch, not a recovery artifact (the
// whole-graph path recovers by re-running), so leaving it would only leak
// disk. Best-effort; open handles keep working via POSIX unlink semantics.
func cleanupSpill(gv *rdf.Governor, g *s3pg.Graph) {
	if gv == nil || !g.Spilled() {
		return
	}
	os.RemoveAll(g.SpillDir())
}
