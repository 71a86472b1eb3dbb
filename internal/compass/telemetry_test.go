package compass

import (
	"bytes"
	"encoding/json"
	"testing"

	"github.com/cognitive-sim/compass/internal/telemetry"
)

// runWithTelemetry runs a small model with a fresh telemetry bundle
// attached and returns both.
func runWithTelemetry(t *testing.T, ranks, threads, ticks int, tr Transport) (*RunStats, *Telemetry) {
	t.Helper()
	m := randomModel(6, 17)
	tel := NewTelemetry(ranks)
	stats, err := Run(m, Config{
		Ranks: ranks, ThreadsPerRank: threads, Transport: tr, Telemetry: tel,
	}, ticks)
	if err != nil {
		t.Fatal(err)
	}
	return stats, tel
}

// TestChromeTraceSchema is the golden trace check: a 3-rank, 10-tick run
// must export Chrome trace-event JSON with a top-level traceEvents array
// whose complete ("X") events all carry ph/ts/dur/pid/tid, one span per
// rank × tick for each compute phase.
func TestChromeTraceSchema(t *testing.T) {
	const ranks, ticks = 3, 10
	_, tel := runWithTelemetry(t, ranks, 1, ticks, TransportMPI)

	var buf bytes.Buffer
	if err := tel.Tracer().WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents     []map[string]json.RawMessage `json:"traceEvents"`
		DisplayTimeUnit string                       `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q, want \"ms\"", doc.DisplayTimeUnit)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("trace has no events")
	}

	spansByPhase := map[string]int{}
	pids := map[int]bool{}
	for i, ev := range doc.TraceEvents {
		var ph string
		if err := json.Unmarshal(ev["ph"], &ph); err != nil {
			t.Fatalf("event %d: bad ph: %v", i, err)
		}
		if ph != "X" {
			continue
		}
		for _, key := range []string{"name", "ts", "dur", "pid", "tid"} {
			if _, ok := ev[key]; !ok {
				t.Fatalf("X event %d is missing %q: %v", i, key, ev)
			}
		}
		var name string
		var ts, dur float64
		var pid, tid int
		if err := json.Unmarshal(ev["name"], &name); err != nil {
			t.Fatalf("event %d: bad name: %v", i, err)
		}
		if err := json.Unmarshal(ev["ts"], &ts); err != nil {
			t.Fatalf("event %d: bad ts: %v", i, err)
		}
		if err := json.Unmarshal(ev["dur"], &dur); err != nil {
			t.Fatalf("event %d: bad dur: %v", i, err)
		}
		if err := json.Unmarshal(ev["pid"], &pid); err != nil {
			t.Fatalf("event %d: bad pid: %v", i, err)
		}
		if err := json.Unmarshal(ev["tid"], &tid); err != nil {
			t.Fatalf("event %d: bad tid: %v", i, err)
		}
		if ts < 0 || dur < 0 {
			t.Errorf("event %d: negative time: ts=%v dur=%v", i, ts, dur)
		}
		if pid < 0 || pid >= ranks {
			t.Errorf("event %d: pid %d outside [0,%d)", i, pid, ranks)
		}
		spansByPhase[name]++
		pids[pid] = true
	}
	// Every rank contributed spans, and each main-loop phase has exactly
	// one span per rank per tick.
	if len(pids) != ranks {
		t.Errorf("spans from %d ranks, want %d", len(pids), ranks)
	}
	for _, phase := range []string{"synapse", "neuron", "network"} {
		if got := spansByPhase[phase]; got != ranks*ticks {
			t.Errorf("phase %q has %d spans, want %d (= ranks × ticks)", phase, got, ranks*ticks)
		}
	}
}

// TestMetricsMatchRunStats checks that the scraped counters agree with
// the independently accumulated RunStats for the same run.
func TestMetricsMatchRunStats(t *testing.T) {
	for _, tr := range Transports() {
		t.Run(tr.String(), func(t *testing.T) {
			stats, tel := runWithTelemetry(t, 3, 2, 20, tr)
			snap := tel.Registry().Snapshot()

			check := func(what string, got float64, want uint64) {
				t.Helper()
				if got != float64(want) {
					t.Errorf("%s: metric %v, RunStats %d", what, got, want)
				}
			}
			check("messages", snap.Value("compass_messages_total"), stats.Messages)
			check("wire bytes", snap.Value("compass_wire_bytes_total"), stats.WireBytes)
			check("local spikes", snap.Value("compass_spikes_total",
				telemetry.Label{Key: "kind", Value: "local"}), stats.LocalSpikes)
			check("remote spikes", snap.Value("compass_spikes_total",
				telemetry.Label{Key: "kind", Value: "remote"}), stats.RemoteSpikes)
			check("firings", snap.Value("compass_firings_total"), stats.TotalSpikes)
			check("synapse skips", snap.Value("compass_synapse_skips_total"), stats.SynapseSkips)
			for path, want := range map[string]uint64{
				"kernel": stats.KernelCoreTicks, "event": stats.EventCoreTicks, "scalar": stats.ScalarCoreTicks,
			} {
				check(path+" dispatches", snap.Value("compass_synapse_dispatch_total",
					telemetry.Label{Key: "path", Value: path}), want)
			}
			check("quiescent ticks", snap.Value("compass_quiescent_core_ticks_total"), stats.QuiescentCoreTicks)
			check("dropped inputs", snap.Value("compass_dropped_inputs_total"), stats.DroppedInputs)

			// The transport's own message counter agrees with the
			// simulator-side count.
			check("transport messages", snap.Value("compass_transport_messages_total",
				telemetry.Label{Key: "transport", Value: tr.String()}), stats.Messages)

			// Phase histograms saw one observation per rank per tick.
			for _, phase := range []string{"synapse", "neuron", "network"} {
				series := snap.Find("compass_phase_seconds")
				found := false
				for _, m := range series {
					if len(m.Labels) == 1 && m.Labels[0].Value == phase {
						found = true
						if m.Count != uint64(stats.Ranks*stats.Ticks) {
							t.Errorf("phase %q histogram count %d, want %d", phase, m.Count, stats.Ranks*stats.Ticks)
						}
						if m.Sum <= 0 {
							t.Errorf("phase %q histogram sum %v, want > 0", phase, m.Sum)
						}
					}
				}
				if !found {
					t.Errorf("no compass_phase_seconds series for phase %q", phase)
				}
			}
		})
	}
}

// TestTelemetryPreservesOutput checks the observability layer is inert:
// the spike trace of an instrumented run is bit-identical to the
// uninstrumented run's.
func TestTelemetryPreservesOutput(t *testing.T) {
	m := randomModel(6, 17)
	base, err := Run(m, Config{Ranks: 3, ThreadsPerRank: 2, RecordTrace: true}, 20)
	if err != nil {
		t.Fatal(err)
	}
	instr, err := Run(m, Config{
		Ranks: 3, ThreadsPerRank: 2, RecordTrace: true, Telemetry: NewTelemetry(3),
	}, 20)
	if err != nil {
		t.Fatal(err)
	}
	if len(base.Trace) != len(instr.Trace) {
		t.Fatalf("trace length %d with telemetry, %d without", len(instr.Trace), len(base.Trace))
	}
	for i := range base.Trace {
		if base.Trace[i] != instr.Trace[i] {
			t.Fatalf("trace diverges at %d: %+v vs %+v", i, base.Trace[i], instr.Trace[i])
		}
	}
	if base.TotalSpikes != instr.TotalSpikes {
		t.Fatalf("spike totals diverge: %d vs %d", base.TotalSpikes, instr.TotalSpikes)
	}
}

// TestTelemetryShardValidation checks Config.Validate rejects a bundle
// built for fewer shards than the run has ranks.
func TestTelemetryShardValidation(t *testing.T) {
	m := randomModel(4, 5)
	_, err := Run(m, Config{Ranks: 4, ThreadsPerRank: 1, Telemetry: NewTelemetry(2)}, 5)
	if err == nil {
		t.Fatal("undersized telemetry bundle accepted")
	}
}

// TestCorePathGauges checks the kernel/scalar core-count gauges cover
// every core exactly once.
func TestCorePathGauges(t *testing.T) {
	stats, tel := runWithTelemetry(t, 2, 1, 5, TransportShmem)
	snap := tel.Registry().Snapshot()
	kernel := snap.Value("compass_cores", telemetry.Label{Key: "path", Value: "kernel"})
	scalar := snap.Value("compass_cores", telemetry.Label{Key: "path", Value: "scalar"})
	if kernel+scalar != float64(stats.NumCores) {
		t.Errorf("kernel (%v) + scalar (%v) cores != %d total", kernel, scalar, stats.NumCores)
	}
	dispatch := snap.Value("compass_synapse_dispatch_total", telemetry.Label{Key: "path", Value: "kernel"}) +
		snap.Value("compass_synapse_dispatch_total", telemetry.Label{Key: "path", Value: "event"}) +
		snap.Value("compass_synapse_dispatch_total", telemetry.Label{Key: "path", Value: "scalar"})
	if dispatch <= 0 {
		t.Error("no synapse dispatches counted")
	}
}
