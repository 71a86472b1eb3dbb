package compass

import (
	"runtime"
	"testing"

	"github.com/cognitive-sim/compass/internal/cocomac"
	"github.com/cognitive-sim/compass/internal/pcc"
	"github.com/cognitive-sim/compass/internal/truenorth"
)

// mallocsPerTick measures the heap allocations one steady-state tick
// costs under cfg: two runs of n and 3n ticks from the same warm
// checkpoint, whose difference cancels every per-run-call cost (rank
// state, worker teams, transport set-up, final-state capture) and
// leaves 2n ticks of loop. The minimum over a few repetitions drops
// allocations a concurrent runtime task happens to make.
func mallocsPerTick(t *testing.T, img *truenorth.Image, cfg Config, n int) float64 {
	t.Helper()
	var before, after runtime.MemStats
	run := func(ticks int) uint64 {
		runtime.GC()
		runtime.ReadMemStats(&before)
		if _, err := RunImage(img, cfg, ticks); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}
	best := -1.0
	for rep := 0; rep < 3; rep++ {
		short, long := run(n), run(3*n)
		per := (float64(long) - float64(short)) / float64(2*n)
		if best < 0 || per < best {
			best = per
		}
	}
	return best
}

// TestResourceBudgets holds counts that are functions of the code and
// the seed, unlike timings, to recorded budgets, so a regression fails
// here on any host: the per-tick allocation count of each transport,
// and the core-ticks each Synapse path serves on a CoCoMac model.
// Bounds only tighten: a change that lowers a count lowers its bound,
// and one that must raise a bound says why in CHANGES.md.
func TestResourceBudgets(t *testing.T) {
	t.Run("synapse-paths", synapsePathBudget)
	t.Run("mallocs-per-tick", mallocsPerTickBudget)
}

// synapsePathBudget pins the Synapse path of all 5120 core-ticks of a
// 40-tick CoCoMac-128 run on 2 ranks × 1 thread. At CoCoMac's activity
// (a few pending axons per core-tick) the event walk serves every
// Synapse phase that runs, and the kernel's fixed cost is paid on none.
// CoCoMac neurons leak, so no core-tick is quiescent. The same run
// pinned to the reference paths serves those core-ticks on the scalar
// walk instead.
func synapsePathBudget(t *testing.T) {
	spec, err := cocomac.Generate(2012).ToSpec(128, 40)
	if err != nil {
		t.Fatal(err)
	}
	res, err := pcc.Compile(spec, 2)
	if err != nil {
		t.Fatal(err)
	}
	img, err := truenorth.NewImage(res.Model)
	if err != nil {
		t.Fatal(err)
	}
	type counts struct{ kernel, event, scalar, skips, quiescent uint64 }
	for _, row := range []struct {
		forceScalar bool
		want        counts
	}{
		{false, counts{event: 867, skips: 4253}},
		{true, counts{scalar: 867, skips: 4253}},
	} {
		st, err := RunImage(img, Config{Ranks: 2, ThreadsPerRank: 1, RankOf: res.RankOf, ForceScalar: row.forceScalar}, 40)
		if err != nil {
			t.Fatal(err)
		}
		got := counts{st.KernelCoreTicks, st.EventCoreTicks, st.ScalarCoreTicks, st.SynapseSkips, st.QuiescentCoreTicks}
		if got != row.want {
			t.Errorf("ForceScalar=%v: core-ticks by path %+v, want %+v", row.forceScalar, got, row.want)
		}
	}
}

// mallocsPerTickBudget holds the per-tick allocation count of each
// transport on a small 2-rank × 2-thread model to a recorded budget: a
// planted per-tick allocation in the sweep, a transport or the worker
// team fails here.
func mallocsPerTickBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation budgets measure full runs")
	}
	m := randomModel(8, 0xB0D6E7)
	img, err := truenorth.NewImage(m)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := RunImage(img, Config{Ranks: 2, ThreadsPerRank: 2, ReturnState: true}, 40)
	if err != nil {
		t.Fatal(err)
	}
	// Each budget counts both ranks. parent is the count before the
	// per-tick waits became one allocation-free rendezvous (the worker
	// team's dispatch channel and WaitGroup, and ReduceScatterSum's
	// per-rank result slices).
	for _, row := range []struct {
		tr             Transport
		budget, parent float64
	}{
		{TransportShmem, 8, 20},
		{TransportPGAS, 6, 18},
		{TransportMPI, 8, 22},
	} {
		cfg := Config{Ranks: 2, ThreadsPerRank: 2, Transport: row.tr, StartFrom: warm.Final}
		got := mallocsPerTick(t, img, cfg, 100)
		t.Logf("%s: %.2f mallocs per steady-state tick (budget %.0f, parent %.0f)", row.tr, got, row.budget, row.parent)
		if got > row.budget+0.5 {
			t.Errorf("%s: %.2f mallocs per steady-state tick, budget %.0f", row.tr, got, row.budget)
		}
	}
}
