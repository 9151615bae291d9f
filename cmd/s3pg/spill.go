package main

// Out-of-core support for the data path (DESIGN.md §10): when -max-mem is
// set, the loader asks a memory-pressure governor every 4096 statements, at
// any -workers, and the governor spills the graph's dictionary, triple log,
// and posting lists to CRC-framed on-disk segments past the watermark; the
// run continues over paged reads instead of dying.

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

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
	fs.StringVar(&mem.spill, "spill", "auto", "where -max-mem spills: auto (beside the data file) or a `directory` (if it exists, a fresh one inside it); the run removes only what it made")
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

// spillDir resolves the spill directory for a run over dataPath. A
// directory that is already there is not the run's to remove, so the run
// spills into a fresh directory inside it instead.
func (mem *memFlags) spillDir(dataPath string) (string, error) {
	dir := mem.spill
	if dir == "auto" {
		dir = dataPath + ".spill"
	}
	if _, err := os.Stat(dir); errors.Is(err, os.ErrNotExist) {
		return dir, nil
	}
	return os.MkdirTemp(dir, "s3pg-spill-*")
}

// governor returns the run's -max-mem governor and the load hook that asks
// it, after every 4096th statement and once at the end, whether the heap is
// past the watermark, spilling the graph when it is; nil and nil without a
// budget. A failed Spill leaves the graph untouched (the in-memory swap
// happens only after the segment is renamed into place), so the hook retries
// a transient fault by spilling again: the retry writes the same contents.
// A spill makes two filesystem operations, a create and a rename, so any
// transient fault period the outputs' 8-operation commit gets through, a
// spill gets through too.
func (mem *memFlags) governor(ctx context.Context, dataPath string, stderr io.Writer) (*rdf.Governor, func(*rdf.Graph) error, error) {
	if mem.maxMemMB <= 0 {
		return nil, nil, nil
	}
	dir, err := mem.spillDir(dataPath)
	if err != nil {
		return nil, nil, fmt.Errorf("spill: %w", err)
	}
	fsys, _ := commitFS() // parseFlags has resolved it without error
	gv := rdf.NewGovernor(rdf.SpillConfig{Dir: dir, FS: fsys, HighMB: mem.maxMemMB})
	return gv, func(g *rdf.Graph) error {
		var spilled bool
		err := faultio.Retry(ctx, commitRetry, func() error {
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
	}, nil
}

// cleanupSpill removes what the run spilled, however the run ends short of
// a kill: spilled state is scratch, not a recovery artifact (the
// whole-graph path recovers by re-running), so leaving it would only leak
// disk. The spill directory is the run's own (spillDir); one the run never
// spilled to is removed only when empty. Best-effort; open handles keep
// working via POSIX unlink semantics.
func cleanupSpill(gv *rdf.Governor) {
	switch {
	case gv == nil:
	case gv.Spills() > 0:
		os.RemoveAll(gv.Dir())
	default:
		os.Remove(gv.Dir())
	}
}
