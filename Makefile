GO ?= go
FUZZTIME ?= 10s

.PHONY: build test race inline bench bench-e2e bench-layers verify fuzz chaos delta-chaos experiments

build:
	$(GO) build ./...

test:
	$(GO) test ./...

bench:
	$(GO) test -bench=. -benchmem ./...

# bench-e2e and bench-layers run the repository's benchmark (bench/,
# BENCHMARK.json): the five workloads end to end against the real binaries,
# and the traced in-process replay that yields the per-layer numbers and
# .bench_build/trace-<workload>.jsonl.
bench-e2e:
	$(GO) run ./bench -workload all

bench-layers:
	$(GO) run ./bench -workload all -trace 1

# race runs the packages where goroutines share memory by design under the
# race detector: the obs instruments, the parallel pipeline (block-pipelined
# ingest, parallel F_dt and export), and everything a live graph's writer
# shares with its snapshots' readers (cow containers, the dictionary's term
# index, store, query executor and both engines, serving tier, daemon).
# verify and CI's fail-fast race step both call it. Three sets of tests
# then run ten times more, because the detector sees a race only in a
# schedule a run happens to take: the N-Triples loader's (every test in
# internal/rio/load_test.go: its workers hand the reader and buffers to each
# other and to two in-order stages), the first readers' (FIRST_READER_TESTS:
# readers racing to build a graph's postings, a store's adjacency and iri
# index, and the cow.Watermark they share) and the live update's (every test
# in internal/server/graphs_wal_test.go and internal/wal/batch_test.go: a
# batch's fsync runs on a goroutine of its own while ApplyDelta, the digest
# and the APPLIED write run beside it). race_rerun runs each set, and fails
# first when the set's -run pattern misses one of its tests, so a renamed
# test cannot drop out of it unnoticed.
RACE_PKGS = ./internal/obs ./internal/rio ./internal/rdf ./internal/core \
	./internal/cow ./internal/pg ./internal/qexec ./internal/sparql \
	./internal/cypher ./internal/serve ./internal/server ./internal/wal
LOADER_TESTS = ^TestLoadNTriples
FIRST_READER_TESTS = TestConcurrentFirstReaders TestStoreIndexConcurrentFirstReaders \
	TestWatermarkConcurrentCatchUp
FIRST_READER_PKGS = ./internal/rdf ./internal/pg ./internal/cow
space := $(subst ,, )
FIRST_READER_RUN = ^($(subst $(space),|,$(strip $(FIRST_READER_TESTS))))$$
LIVE_UPDATE_TESTS = ^Test(Graph(UpdateOneSyncPerBatch|FailedPairedWriteAcksNothing|TornPairRecovery|SingleFrameSpoolReopens|RejectedBatchLeavesNoRecord|RecoveryDropsRejectedTail)|Batch[A-Za-z]*|RetractRecoveredUpdate|ConcurrentBatchHammer)$$
LIVE_UPDATE_FILES = internal/server/graphs_wal_test.go internal/wal/batch_test.go
LIVE_UPDATE_PKGS = ./internal/server ./internal/wal

# race_rerun checks that the -run pattern $(1) matches each test $(3) names in
# the packages $(2), then runs them ten times under the race detector.
define race_rerun
@listed="$$($(GO) test -list '$(1)' $(2))"; \
for t in $(3); do \
	echo "$$listed" | grep -qx "$$t" || { echo "race: $(1) does not match $$t in $(2)"; exit 1; }; done
$(GO) test -race -count=10 -run '$(1)' $(2)
endef
# tests_in names the tests the files $(1) declare.
tests_in = $(shell sed -n 's/^func \(Test[A-Za-z0-9_]*\).*/\1/p' $(1))

race:
	$(GO) test -race $(RACE_PKGS)
	$(call race_rerun,$(LOADER_TESTS),./internal/rio,$(call tests_in,internal/rio/load_test.go))
	$(call race_rerun,$(FIRST_READER_RUN),$(FIRST_READER_PKGS),$(FIRST_READER_TESTS))
	$(call race_rerun,$(LIVE_UPDATE_TESTS),$(LIVE_UPDATE_PKGS),$(call tests_in,$(LIVE_UPDATE_FILES)))

# inline fails unless the compiler inlines the calls the hot paths are
# written around (the list is in internal/tools/inlinecheck): the term
# index's resident compare into its probe loop, for both key forms; the
# resident probe of Dict.View and of a SPARQL answer cell; a segment's
# triple filter into the spilled lookup; the watermark's catch-up into the
# reads of the RDF postings, the store's adjacency and its iri index; and a
# live grow batch's value-node probe and change-record sort rank. A lost
# inline fails no test, it only makes the benchmark slower.
inline:
	$(GO) run ./internal/tools/inlinecheck

# verify is the pre-commit gate: static checks, formatting, the inlines the
# hot paths need, the race list, the full test suite (including the
# corrupted-input corpus tests), and a short fuzz pass over every parser
# entry point.
verify:
	$(GO) vet ./...
	@fmtout="$$(gofmt -l .)"; if [ -n "$$fmtout" ]; then \
		echo "gofmt needed on:"; echo "$$fmtout"; exit 1; fi
	$(MAKE) inline
	$(MAKE) race
	$(GO) test ./...
	$(MAKE) fuzz

# fuzz runs every native fuzz target for FUZZTIME each: the N-Triples and
# Turtle parsers (strict and lenient), the N-Triples graph loader on 1, 2
# and 4 workers over short reads against a statement-by-statement load, the
# Cypher lexer and parser, the
# SPARQL parser, both engines' executor against the reference evaluator it
# replaced, the /query JSON writer against encoding/json, a spilled
# graph under random Add/Remove/Spill/Clone schedules against a twin that
# never spilled, a live graph edited in place under random update scripts
# against a twin that rebuilds on every batch, both twins' change records
# against a direct diff of the stores, the property-graph store under
# random mutator/Clone/Resequence scripts against its map-based model,
# pg.LoadCSV on arbitrary bytes, the CSV row encoder against
# encoding/csv over the same fields, read back by pg.LoadCSV, and the WAL's
# two payload encoders: an update batch against the fmt renderer it
# replaced (and back through DecodeDelta), its change record against
# encoding/json. SPARQL Update parses are held to a parse through a graph
# per data block, and every spelling of an RDF term must read as that term
# in Turtle, a SPARQL pattern, a FILTER and an INSERT DATA block. The
# mapping F_dt used, over a generated graph under thinned shapes, must be the
# one BuildMapping rebuilds from the extended schema's DDL. New crashers
# land in testdata/fuzz/ and become regression tests.
FUZZ_TARGETS = \
	FuzzParseNTriplesLine:./internal/rio \
	FuzzReadNTriplesLenient:./internal/rio \
	FuzzLoadNTriplesPaths:./internal/rio \
	FuzzReadTurtle:./internal/rio \
	FuzzLexer:./internal/cypher \
	FuzzParse:./internal/cypher \
	FuzzParse:./internal/sparql \
	FuzzParseUpdate:./internal/sparql \
	FuzzTermSyntax:./internal/sparql \
	FuzzDeltaEncode:./internal/rdf \
	FuzzPGDeltaEncode:./internal/core \
	FuzzEvalDifferential:./internal/cypher \
	FuzzEvalDifferential:./internal/sparql \
	FuzzRowJSON:./internal/serve \
	FuzzSpillSchedule:./internal/rdf \
	FuzzApplyDeltaInPlace:./internal/core \
	FuzzMappingRoundTrip:./internal/core \
	FuzzStoreOps:./internal/pg \
	FuzzLoadCSV:./internal/pg \
	FuzzWriteCSV:./internal/pg

fuzz:
	@for t in $(FUZZ_TARGETS); do \
		name=$${t%%:*}; pkg=$${t##*:}; \
		echo "fuzzing $$name in $$pkg for $(FUZZTIME)"; \
		$(GO) test -run='^$$' -fuzz="^$$name$$" -fuzztime=$(FUZZTIME) $$pkg || exit 1; \
	done

# chaos runs the s3pgd chaos matrix (real binary × fixed-seed fault
# regimes × SIGTERM/SIGKILL) plus the job manager and HTTP layer tests
# under the race detector. Daemon logs are kept in CHAOS_LOG_DIR so a CI
# failure ships them as an artifact.
CHAOS_LOG_DIR ?= $(CURDIR)/chaos-logs
chaos:
	S3PGD_CHAOS_LOG_DIR=$(CHAOS_LOG_DIR) \
		$(GO) test -race -count=1 ./internal/jobs ./internal/server ./cmd/s3pgd

# delta-chaos runs the crash-safe incremental-transform matrix: the WAL and
# live-graph layers under the race detector, then the SIGKILL matrix against
# the real daemon — kill mid-ApplyDelta, mid-WAL-append, and mid-/changes
# stream — asserting no acknowledged LSN is lost or double-applied, resumed
# subscriber streams are byte-identical to uninterrupted ones, and the
# recovered exports equal a full re-transform of the accepted batch prefix.
# Daemon logs land in CHAOS_LOG_DIR for post-mortem.
delta-chaos:
	$(GO) test -race -count=1 ./internal/wal ./internal/server
	S3PGD_CHAOS_LOG_DIR=$(CHAOS_LOG_DIR) \
		$(GO) test -race -count=1 -run 'TestDeltaChaos' ./cmd/s3pgd

experiments:
	$(GO) run ./cmd/experiments
