package compass

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"github.com/cognitive-sim/compass/internal/coreobject"
	"github.com/cognitive-sim/compass/internal/truenorth"
)

// TestCheckpointResumeMatchesStraightRun: a run split in two by a
// checkpoint must produce exactly the trace of the unbroken run. The
// model uses stochastic neurons, so this also proves PRNG state restores
// bit-exactly.
func TestCheckpointResumeMatchesStraightRun(t *testing.T) {
	m := stochasticModel(6, 0xCAFE)
	const half = 20

	// Straight run, tracing only the second half.
	straight, err := Run(m, Config{Ranks: 3, ThreadsPerRank: 2, RecordTrace: true}, 2*half)
	if err != nil {
		t.Fatal(err)
	}
	var want []truenorth.SpikeEvent
	for _, ev := range straight.Trace {
		if ev.FireTick >= half {
			want = append(want, ev)
		}
	}

	// First half with state capture, under the shmem transport — the
	// checkpoint must restore under any other transport.
	first, err := Run(m, Config{Ranks: 3, ThreadsPerRank: 2, Transport: TransportShmem, ReturnState: true}, half)
	if err != nil {
		t.Fatal(err)
	}
	if first.Final == nil || first.Final.Tick != half {
		t.Fatalf("missing or mistimed checkpoint: %+v", first.Final)
	}

	// Resume under a different decomposition and transport.
	second, err := Run(m, Config{
		Ranks: 5, ThreadsPerRank: 1, Transport: TransportPGAS,
		StartFrom: first.Final, RecordTrace: true,
	}, half)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(second.Trace, want) {
		t.Fatalf("resumed trace differs: %d events vs %d expected", len(second.Trace), len(want))
	}
}

// decompositions is the partition a resumed run switches to at each
// chunk boundary: 2 ranks, then 1→8→3→5→1. Every multi-rank placement
// is non-block, and the 5-rank one leaves rank 3 idle.
var decompositions = []struct {
	ranks  int
	rankOf []int
}{
	{2, []int{1, 0, 1, 1, 0, 0, 1, 0}},
	{1, nil},
	{8, []int{3, 7, 0, 5, 1, 6, 2, 4}},
	{3, []int{2, 0, 1, 1, 0, 2, 2, 0}},
	{5, []int{4, 1, 4, 0, 2, 2, 0, 1}},
	{1, nil},
}

// TestResumeAcrossDecompositions is the cross-decomposition checkpoint
// contract: a run resumed at every chunk boundary onto the next
// partition of decompositions gives the trace and the final
// checkpoint bytes of the same ticks run straight through. It holds on
// every transport, with stochastic cores (the per-core PRNG streams
// survive each move), with a live input stream injecting on both sides
// of each boundary, and for both lanes of a 2-lane batch, one streamed
// and one not.
func TestResumeAcrossDecompositions(t *testing.T) {
	const nCores, chunk = 8, 6
	ticks := chunk * len(decompositions)
	m := stochasticModel(nCores, 0xE1A57)
	img, err := truenorth.NewImage(m)
	if err != nil {
		t.Fatal(err)
	}
	src := streamStub{nCores: nCores}
	straight := func(in InputSource) *RunStats {
		stats, err := Run(m, Config{
			Ranks: 2, ThreadsPerRank: 2,
			RecordTrace: true, ReturnState: true, InputSource: in,
		}, ticks)
		if err != nil {
			t.Fatal(err)
		}
		return stats
	}
	refs := []*RunStats{straight(src), straight(nil)}
	if len(refs[1].Trace) == 0 || reflect.DeepEqual(refs[0].Trace, refs[1].Trace) {
		t.Fatal("the straight runs fire nothing, or the stream changes nothing: the table would prove nothing")
	}

	for _, tr := range Transports() {
		for _, lanes := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/lanes=%d", tr, lanes), func(t *testing.T) {
				batch := make([]BatchLane, lanes)
				batch[0].InputSource = src
				traces := make([][]truenorth.SpikeEvent, lanes)
				for c, d := range decompositions {
					cfg := Config{
						Ranks: d.ranks, RankOf: d.rankOf, ThreadsPerRank: 2, Transport: tr,
						RecordTrace: true, ReturnState: true,
					}
					var res []*RunStats
					if lanes == 1 {
						cfg.StartFrom, cfg.InputSource = batch[0].StartFrom, src
						stats, err := RunImage(img, cfg, chunk)
						if err != nil {
							t.Fatalf("chunk %d: %v", c, err)
						}
						res = []*RunStats{stats}
					} else {
						br, err := RunBatch(img, cfg, chunk, batch)
						if err != nil {
							t.Fatalf("chunk %d: %v", c, err)
						}
						res = br.Lanes
					}
					for l, stats := range res {
						traces[l] = append(traces[l], stats.Trace...)
						batch[l].StartFrom = stats.Final
					}
				}
				for l, ref := range refs[:lanes] {
					if !reflect.DeepEqual(traces[l], ref.Trace) {
						t.Fatalf("lane %d: resumed trace has %d events, straight run %d (or differs)",
							l, len(traces[l]), len(ref.Trace))
					}
					if !bytes.Equal(checkpointBytes(t, batch[l].StartFrom), checkpointBytes(t, ref.Final)) {
						t.Fatalf("lane %d: final checkpoint differs from the straight run's", l)
					}
				}
			})
		}
	}
}

// checkpointBytes serializes cp the way a drained session writes it.
func checkpointBytes(t *testing.T, cp *truenorth.Checkpoint) []byte {
	t.Helper()
	if cp == nil {
		t.Fatal("missing checkpoint")
	}
	var buf bytes.Buffer
	if err := coreobject.WriteCheckpoint(&buf, cp); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestCheckpointSerialParallelPortability: serial snapshot restores into
// the parallel simulator and vice versa.
func TestCheckpointSerialParallelPortability(t *testing.T) {
	m := stochasticModel(4, 0xD00D)
	const half = 15

	// Serial first half.
	sim, err := truenorth.NewSerialSim(m)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(half); err != nil {
		t.Fatal(err)
	}
	cp := sim.Snapshot()

	// Serial second half (reference).
	ref, err := truenorth.NewSerialSimAt(m, cp)
	if err != nil {
		t.Fatal(err)
	}
	var want []truenorth.SpikeEvent
	ref.OnSpike = func(tick uint64, s truenorth.Spike) {
		want = append(want, truenorth.SpikeEvent{FireTick: tick, Target: s.Target})
	}
	if err := ref.Run(half); err != nil {
		t.Fatal(err)
	}
	truenorth.SortSpikeEvents(want)

	// Parallel second half from the same serial checkpoint.
	par, err := Run(m, Config{Ranks: 4, ThreadsPerRank: 2, StartFrom: cp, RecordTrace: true}, half)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(par.Trace, want) {
		t.Fatalf("parallel resume differs from serial resume: %d vs %d events", len(par.Trace), len(want))
	}

	// And back: parallel state capture restores into a serial simulator.
	parWithState, err := Run(m, Config{Ranks: 2, ThreadsPerRank: 2, ReturnState: true}, half)
	if err != nil {
		t.Fatal(err)
	}
	serial2, err := truenorth.NewSerialSimAt(m, parWithState.Final)
	if err != nil {
		t.Fatal(err)
	}
	var got []truenorth.SpikeEvent
	serial2.OnSpike = func(tick uint64, s truenorth.Spike) {
		got = append(got, truenorth.SpikeEvent{FireTick: tick, Target: s.Target})
	}
	if err := serial2.Run(half); err != nil {
		t.Fatal(err)
	}
	truenorth.SortSpikeEvents(got)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("serial resume from parallel state differs: %d vs %d events", len(got), len(want))
	}
}

func TestCheckpointValidation(t *testing.T) {
	m := stochasticModel(3, 1)
	cp := &truenorth.Checkpoint{Tick: 5, States: make([]truenorth.CoreState, 2)}
	if _, err := Run(m, Config{Ranks: 1, ThreadsPerRank: 1, StartFrom: cp}, 5); err == nil {
		t.Fatal("short checkpoint accepted")
	}
	cp = &truenorth.Checkpoint{Tick: 5, States: make([]truenorth.CoreState, 3)}
	cp.States[1].ID = 7
	for i := range cp.States {
		cp.States[i].RNG = [4]uint64{1, 0, 0, 0}
	}
	if _, err := Run(m, Config{Ranks: 1, ThreadsPerRank: 1, StartFrom: cp}, 5); err == nil {
		t.Fatal("misnumbered checkpoint accepted")
	}
	// All-zero PRNG state must be rejected.
	cp = &truenorth.Checkpoint{Tick: 0, States: make([]truenorth.CoreState, 3)}
	for i := range cp.States {
		cp.States[i].ID = truenorth.CoreID(i)
	}
	if _, err := Run(m, Config{Ranks: 1, ThreadsPerRank: 1, StartFrom: cp}, 5); err == nil {
		t.Fatal("zero PRNG state accepted")
	}
}

func TestPerTickStatsWithCheckpointStart(t *testing.T) {
	m := stochasticModel(3, 2)
	first, err := Run(m, Config{Ranks: 1, ThreadsPerRank: 1, ReturnState: true}, 10)
	if err != nil {
		t.Fatal(err)
	}
	second, err := Run(m, Config{
		Ranks: 2, ThreadsPerRank: 1,
		StartFrom: first.Final, RecordPerTick: true,
	}, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(second.PerTick) != 8 {
		t.Fatalf("resumed run PerTick has %d entries, want 8", len(second.PerTick))
	}
	var sum uint64
	for _, ts := range second.PerTick {
		sum += ts.Firings
	}
	if sum != second.TotalSpikes {
		t.Fatalf("per-tick firings %d != total %d after resume", sum, second.TotalSpikes)
	}
}
