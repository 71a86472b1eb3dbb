# Developer entry points. `make check` is the pre-commit gate; `race`
# exercises the per-tick rendezvous, the persistent worker pool and the
# shmem buffer swapping under the race detector on every change, and
# `stress` repeats the runtimes' tests on one and two CPUs. `make e2e`
# is the one end-to-end harness: the checks that need real compassd
# processes.

GO ?= go

.PHONY: build test race stress vet check bench-smoke fuzz-smoke e2e

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Race-check the simulator core and both communication runtimes: the
# spin-then-park rendezvous behind every per-tick wait (its last-arriver
# combine step, and Abort releasing spinning and parked waiters), the
# worker pool's fork/join, the MPI mailboxes, the PGAS windows, the
# shmem zero-copy slice swapping, the atomic spike-delivery bitmask,
# and the fault injection and abort paths (delayed async sends, barrier
# aborts, receiver-side dedup) all run under -race here.
race:
	$(GO) test -race ./internal/workpool/... ./internal/truenorth/... ./internal/compass/... ./internal/faults/... ./internal/mpi/... ./internal/pgas/... ./internal/modelcache/... ./internal/server/... ./internal/cluster/... ./internal/spikecode/... ./internal/scenario/...

# The rendezvous polls with runtime.Gosched before it parks: with one
# CPU a waiter must still let the peer it waits for run, and with two
# the ranks and workers outnumber the CPUs. Repeat the runtimes' tests
# under both (well under a minute).
STRESS_PKGS = ./internal/workpool/... ./internal/mpi/... ./internal/pgas/... ./internal/compass/...
stress:
	GOMAXPROCS=1 $(GO) test -count=3 $(STRESS_PKGS)
	GOMAXPROCS=2 $(GO) test -count=3 $(STRESS_PKGS)

vet:
	$(GO) vet ./...

# bench/ is the repository's one performance benchmark (`bash
# bench/run.sh`; BENCHMARK.json lists its workloads and metrics). It is
# a module of its own that `go build ./...` and `go test ./...` at the
# root never compile, yet it imports the packages here: vet it and run
# its smoke test (tiny sizes, ~3 s) so a change that breaks the
# benchmark's build or its golden hashes fails the gate.
bench-smoke:
	$(GO) vet -C bench ./...
	$(GO) test -C bench -short ./...

# Five seconds of native fuzzing per target: over bytes that arrive
# from outside (the stream plane's handshake and inject frames, which
# compassd and the coordinator's stream proxy parse with the same two
# functions, a CSPK spike trace through `compass spikes`, and the
# `-faults` grammar, which a create request also carries), and over
# core configurations decoded from bytes, on which the Synapse kernel,
# the event walk and the scalar walk, and the two Neuron loops, must
# agree bit for bit. `go test -fuzz` takes one target per run; a
# failing input is written to testdata/fuzz/ and fails `go test` from
# then on.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzReadStreamHandshake$$' -fuzztime 5s ./internal/server/
	$(GO) test -run '^$$' -fuzz '^FuzzReadInjectFrames$$' -fuzztime 5s ./internal/server/
	$(GO) test -run '^$$' -fuzz '^FuzzSpikeTrace$$' -fuzztime 5s ./cmd/compass/
	$(GO) test -run '^$$' -fuzz '^FuzzSynapsePaths$$' -fuzztime 5s ./internal/truenorth/
	$(GO) test -run '^$$' -fuzz '^FuzzParseFaults$$' -fuzztime 5s ./internal/faults/

check: build vet test race stress bench-smoke fuzz-smoke

# End-to-end harness: build compassd, then run cmd/e2e against it. It
# starts a solo daemon and a coordinator plus three nodes and runs four
# drills that need real processes: SIGKILL failover and live migration
# (each byte-identical to a solo reference run), a scenario through the
# coordinator (identical to its solo run), and SIGTERM drain to a
# checkpoint file that a successor daemon resumes. The harness's and
# every daemon's output land in $(E2E_DIR)/e2e.log.
E2E_DIR ?= e2e
e2e:
	mkdir -p $(E2E_DIR)
	$(GO) build -o $(E2E_DIR)/compassd ./cmd/compassd
	$(GO) run ./cmd/e2e -compassd $(E2E_DIR)/compassd -dir $(E2E_DIR)
