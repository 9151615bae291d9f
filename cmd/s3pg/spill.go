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

// governor returns the run's -max-mem governor and the load hook that asks
// it, after every 4096th statement and once at the end, whether the heap is
// past the watermark, spilling the graph when it is; nil and nil without a
// budget. A failed Spill leaves the graph untouched (the in-memory swap
// happens only after the segment is renamed into place), so the hook retries
// a transient fault by spilling again: the retry writes the same contents.
// A spill makes two filesystem operations, a create and a rename, so any
// transient fault period the outputs' 8-operation commit gets through, a
// spill gets through too.
func (mem *memFlags) governor(ctx context.Context, dataPath string, stderr io.Writer) (*rdf.Governor, func(*rdf.Graph) error) {
	if mem.maxMemMB <= 0 {
		return nil, nil
	}
	fsys, _ := commitFS() // parseFlags has resolved it without error
	gv := rdf.NewGovernor(rdf.SpillConfig{
		Dir:    mem.spillDir(dataPath),
		FS:     fsys,
		HighMB: mem.maxMemMB,
	})
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
