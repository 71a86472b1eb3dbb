# Developer entry points. `make check` is the pre-commit gate; `race`
# exercises the persistent worker pool and the shmem buffer swapping
# under the race detector on every change.

GO ?= go

.PHONY: build test race vet check bench-smoke fuzz-smoke telemetry-smoke chaos-smoke race-transport serve-smoke cluster-smoke scenario-smoke

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Race-check the simulator core and both communication runtimes: the
# worker pool, the MPI mailboxes, the PGAS windows, the shmem zero-copy
# slice swapping, and the atomic spike-delivery bitmask all run under
# -race here.
race:
	$(GO) test -race ./internal/truenorth/... ./internal/compass/... ./internal/mpi/... ./internal/pgas/... ./internal/modelcache/... ./internal/server/... ./internal/cluster/... ./internal/reshape/... ./internal/spikecode/... ./internal/scenario/...

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

# Five seconds of native fuzzing per target over the bytes the stream
# plane reads from untrusted clients — the handshake and the inject
# frames, which compassd and the coordinator's stream proxy parse with
# the same two functions. `go test -fuzz` takes one target per run; a
# failing input is written to testdata/fuzz/ and fails `go test` from
# then on.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzReadStreamHandshake$$' -fuzztime 5s ./internal/server/
	$(GO) test -run '^$$' -fuzz '^FuzzReadInjectFrames$$' -fuzztime 5s ./internal/server/

check: build vet test race bench-smoke fuzz-smoke

# Chaos smoke: run the CoCoMac workload under every fault class on the
# CLI — survivable classes (retried drop, duplication, delay, stall)
# must complete, the crash class must fail with a clean error naming the
# rank and the tick — then the in-process chaos acceptance tests: the
# full transport x fault-class matrix with bit-identical-output checks,
# and the rank-failure propagation (no-hang) guards.
chaos-smoke:
	$(GO) run ./cmd/compass -cocomac-cores 128 -ranks 3 -threads 2 -ticks 20 -faults "drop"
	$(GO) run ./cmd/compass -cocomac-cores 128 -ranks 3 -threads 2 -ticks 20 -faults "dup"
	$(GO) run ./cmd/compass -cocomac-cores 128 -ranks 3 -threads 2 -ticks 20 -faults "delay:k=2"
	$(GO) run ./cmd/compass -cocomac-cores 128 -ranks 3 -threads 2 -ticks 20 -faults "stall:rank=1,k=1"
	$(GO) run ./cmd/compass -cocomac-cores 128 -ranks 3 -threads 2 -ticks 20 -transport pgas -faults "drop;dup"
	$(GO) run ./cmd/compass -cocomac-cores 128 -ranks 3 -threads 2 -ticks 20 -transport shmem -faults "drop;dup"
	$(GO) run ./cmd/compass -cocomac-cores 128 -ranks 3 -threads 2 -ticks 20 -faults "crash:rank=1,tick=5"; \
		test $$? -ne 0 || { echo "chaos-smoke: injected crash did not fail the run"; exit 1; }
	$(GO) test -run 'TestChaos|TestRankFailure|TestDropPast|TestFailedRun|TestSurvivable' -count=1 ./internal/compass/

# Race-check the fault-injection and failure-propagation paths: the
# chaos matrix, the abort broadcasts, and the faults package itself.
race-transport:
	$(GO) test -race -count=1 ./internal/faults/
	$(GO) test -race -count=1 \
		-run 'TestChaos|TestRankFailure|TestDropPast|TestFailedRun|TestSurvivable|TestCrossTransport|TestShmemAbort|TestRankError|TestAborted|TestErrorAborts' \
		./internal/compass/ ./internal/mpi/ ./internal/pgas/

# End-to-end serving smoke: build compassd, then drive it with the
# servesmoke client — session create/pause/resume/checkpoint over HTTP,
# live spike injection and egress over the stream plane, SIGTERM drain
# to checkpoint files, and a successor daemon resuming from them. All
# output (both daemons + client) lands in $(SERVE_DIR)/serve-smoke.log.
SERVE_DIR ?= serve-smoke
serve-smoke:
	mkdir -p $(SERVE_DIR)
	$(GO) build -o $(SERVE_DIR)/compassd ./cmd/compassd
	$(GO) run ./cmd/servesmoke -compassd $(SERVE_DIR)/compassd -dir $(SERVE_DIR)

# Cluster serving smoke: build compassd, then spawn a coordinator plus
# three nodes and run the clustersmoke drills — live migration between
# daemons and SIGKILL heartbeat-lapse failover, each verified
# byte-identical (spike trace + final checkpoint) against a solo
# reference run. All process output lands in
# $(CLUSTER_DIR)/cluster-smoke.log.
CLUSTER_DIR ?= cluster-smoke
cluster-smoke:
	mkdir -p $(CLUSTER_DIR)
	$(GO) build -o $(CLUSTER_DIR)/compassd ./cmd/compassd
	$(GO) run ./cmd/clustersmoke -compassd $(CLUSTER_DIR)/compassd -dir $(CLUSTER_DIR)

# Scenario smoke: build compassd, run every registered closed-loop
# scenario (bandit, stroop, charrec) against it through the episode
# engine, check the per-scenario counters and stream-RTT histogram on
# /metrics, pin determinism by replaying one run through compass.Run,
# then re-run a scenario through a coordinator + node and require a
# bit-identical inject stream and score. Output lands in
# $(SCENARIO_DIR)/scenario-smoke.log.
SCENARIO_DIR ?= scenario-smoke
scenario-smoke:
	mkdir -p $(SCENARIO_DIR)
	$(GO) build -o $(SCENARIO_DIR)/compassd ./cmd/compassd
	$(GO) run ./cmd/scenariosmoke -compassd $(SCENARIO_DIR)/compassd -dir $(SCENARIO_DIR)

# End-to-end telemetry smoke: run a small CoCoMac model with every
# export sink enabled, then validate the Prometheus exposition, the JSON
# snapshot, and the Chrome trace with the in-repo checker. Artifacts
# land in $(SMOKE_DIR) (CI uploads them).
SMOKE_DIR ?= telemetry-smoke
telemetry-smoke:
	mkdir -p $(SMOKE_DIR)
	$(GO) run ./cmd/compass -cocomac-cores 128 -ranks 3 -threads 2 -ticks 20 \
		-metrics $(SMOKE_DIR)/run -trace-out $(SMOKE_DIR)/trace.json \
		-stats-json $(SMOKE_DIR)/stats.json
	$(GO) run ./cmd/telemetrycheck -metrics $(SMOKE_DIR)/run.prom \
		-snapshot $(SMOKE_DIR)/run.json -trace $(SMOKE_DIR)/trace.json
