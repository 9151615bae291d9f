// Package jobs turns the one-shot RDF→PG transformation pipeline into a
// long-running job service: transformation requests are accepted into a
// bounded queue with admission control, persisted to a spool directory
// before they are acknowledged, and executed by a worker pool as the batch
// run of `s3pg data` (internal/batch: read, transform, commit edges.csv,
// nodes.csv and schema.ddl), which Rerun repeats without the commits for a
// finished job's query snapshot. Every accepted job either completes or
// survives a crash, a drain or a restart: the spool holds its inputs, a lost
// run is run again from them, and the outputs are those of `s3pg data` on the
// same input, byte for byte (see DESIGN.md §4d and §6).
//
// Failure model:
//
//   - Per-job panic isolation: a panic inside one transformation marks that
//     job failed (with the stack) and leaves the worker pool serving.
//   - Deadline propagation: a per-job timeout bounds each run via context;
//     drain cancellation is distinguished from deadline expiry by cause.
//   - Commit circuit breaker: all spool writes go through atomic commits
//     with faultio.Retry backoff; when commits keep failing, the Breaker
//     opens, new work is shed, and readiness reports not-ready.
//   - Durable spool: a job's acknowledgment (manifest commit) happens before
//     Submit returns, so an accepted job is never lost; the manifest and the
//     spooled inputs are the recovery record a restart reruns from.
package jobs

import (
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"time"

	"github.com/s3pg/s3pg/internal/batch"
)

// State is a job's lifecycle position.
type State string

const (
	// StateQueued: accepted and durable, waiting for a worker (also the
	// state a drained or requeued job returns to).
	StateQueued State = "queued"
	// StateRunning: a worker is transforming it.
	StateRunning State = "running"
	// StateDone: outputs are committed in the job's spool directory.
	StateDone State = "done"
	// StateFailed: the run ended with an error (recorded on the job).
	StateFailed State = "failed"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool { return s == StateDone || s == StateFailed }

// Lifecycle phases of a job timeline, in the order a clean run visits them.
// They mirror the paper's Table 4 phase breakdown at per-job granularity:
// spool (input persistence), queued (admission / every requeue), running
// (worker pickup), commit (output files committed), then a terminal done or
// failed. Manifests written before the chunked pipeline was deleted may also
// hold "checkpoint" events; they load like any other.
const (
	PhaseSpool   = "spool"
	PhaseQueued  = "queued"
	PhaseRunning = "running"
	PhaseCommit  = "commit"
	PhaseDone    = "done"
	PhaseFailed  = "failed"
)

// PhaseEvent is one entry of a job's lifecycle timeline. Timestamps are
// non-decreasing along the timeline, across restarts included, because the
// timeline is persisted in the manifest and only ever appended to.
type PhaseEvent struct {
	Phase string    `json:"phase"`
	At    time.Time `json:"at"`
	// Note qualifies a transition: "recovered" on a restart-requeue, "drain"
	// or "retry" on a live requeue.
	Note string `json:"note,omitempty"`
}

// Spec is the client-provided description of one transformation request.
type Spec struct {
	// Mode is "parsimonious" (default when empty) or "nonparsimonious".
	Mode string `json:"mode,omitempty"`
	// Lenient enables skip-and-degrade handling of dirty input.
	Lenient bool `json:"lenient,omitempty"`
	// Timeout bounds the job's running time (0 = no limit). Time spent
	// queued does not count; the clock restarts with every run.
	Timeout time.Duration `json:"timeout,omitempty"`
}

// Job is the durable record of one accepted request — the manifest persisted
// at <spool>/<id>/job.json. Unknown fields of older manifests (resumes) are
// ignored on load.
type Job struct {
	ID string `json:"id"`
	Spec
	State State  `json:"state"`
	Error string `json:"error,omitempty"`

	Accepted time.Time `json:"accepted"`
	Started  time.Time `json:"started,omitempty"`
	Finished time.Time `json:"finished,omitempty"`

	// Statements (distinct statements loaded) and Skipped (malformed lines
	// lenient mode dropped) describe the input; Nodes/Edges and Degraded the
	// emitted property graph. All are set once the job is done.
	Statements int64 `json:"statements,omitempty"`
	Skipped    int64 `json:"skipped,omitempty"`
	Nodes      int64 `json:"nodes,omitempty"`
	Edges      int64 `json:"edges,omitempty"`
	Degraded   int64 `json:"degraded,omitempty"`

	// Attempts counts worker pickups (a drain's requeue gives its pickup
	// back).
	Attempts int `json:"attempts,omitempty"`

	// Outputs lists the committed result files (relative to the job's spool
	// directory) once the job is done.
	Outputs []string `json:"outputs,omitempty"`

	// Timeline is the job's lifecycle trace (see PhaseEvent). It is part of
	// the manifest, so it survives restarts and GET /jobs/{id} can always
	// show where a job spent its time.
	Timeline []PhaseEvent `json:"timeline,omitempty"`

	// enqueuedAt is the in-memory timestamp of the last enqueue, feeding the
	// queue-wait histogram at pickup. Not persisted: after a restart the wait
	// is measured from recovery, not from the original acceptance.
	enqueuedAt time.Time
}

// Spool-relative file names of a job directory.
const (
	manifestFile = "job.json"
	dataFile     = "data.nt"
	shapesFile   = "shapes.ttl"
	nodesFile    = batch.NodesFile
	edgesFile    = batch.EdgesFile
	schemaFile   = batch.SchemaFile
	// staleCkptFile is the chunked pipeline's checkpoint, swept on Open.
	staleCkptFile = "run.ckpt"
)

// OutputFiles is the fixed set of result files a finished job exposes.
var OutputFiles = []string{nodesFile, edgesFile, schemaFile}

// jobIDShape matches the ids newJobID returns.
var jobIDShape = regexp.MustCompile(`^j[0-9]{6,}-[0-9a-f]{8}$`)

// newJobID returns a queue-ordered, collision-resistant job id: a sequence
// prefix for human-readable ordering plus random bytes so ids stay unique
// across daemon restarts sharing one spool.
func newJobID(seq int64) (string, error) {
	var b [4]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "", fmt.Errorf("jobs: id entropy: %w", err)
	}
	return fmt.Sprintf("j%06d-%s", seq, hex.EncodeToString(b[:])), nil
}

// loadManifest reads a job manifest from dir. A missing or torn manifest
// means the job was never acknowledged: Submit commits the manifest before
// returning, so such a directory is garbage, not a lost job.
func loadManifest(dir string) (*Job, error) {
	raw, err := os.ReadFile(filepath.Join(dir, manifestFile))
	if err != nil {
		return nil, err
	}
	j := &Job{}
	if err := json.Unmarshal(raw, j); err != nil {
		return nil, fmt.Errorf("jobs: manifest %s: %w", dir, err)
	}
	return j, nil
}
