package reshape

import (
	"reflect"
	"testing"

	sim "github.com/cognitive-sim/compass/internal/compass"
	"github.com/cognitive-sim/compass/internal/experiments"
	"github.com/cognitive-sim/compass/internal/truenorth"
)

func uniformLoads(ranks, coresPerRank int, events uint64) []Load {
	out := make([]Load, ranks)
	for i := range out {
		out[i] = Load{Cores: coresPerRank, SynapticEvents: events}
	}
	return out
}

func blockPlacement(cores, ranks int) []int {
	out := make([]int, cores)
	for i := range out {
		out[i] = i * ranks / cores
	}
	return out
}

// TestComputeUniformLoadsIsNoOp: when every rank measured the same cost,
// the plan must reproduce the block partition and move nothing.
func TestComputeUniformLoadsIsNoOp(t *testing.T) {
	placement := blockPlacement(8, 4)
	plan, err := Compute(placement, uniformLoads(4, 2, 1000), 0)
	if err != nil {
		t.Fatal(err)
	}
	if plan.MovedCores != 0 {
		t.Errorf("uniform loads moved %d cores (rankOf %v)", plan.MovedCores, plan.RankOf)
	}
	if plan.Ranks != 4 || plan.FromRanks != 4 {
		t.Errorf("plan ranks %d from %d, want 4 from 4", plan.Ranks, plan.FromRanks)
	}
	if plan.IdleRanks != 0 {
		t.Errorf("uniform plan left %d idle ranks", plan.IdleRanks)
	}
	if plan.PredictedCompute > 1.01 {
		t.Errorf("uniform plan predicts imbalance %.3f, want ~1", plan.PredictedCompute)
	}
}

// TestComputeSkewRebalances: one hot rank must shed cores to its
// neighbours, and the predicted imbalance of the new partition must be
// far below the measured one.
func TestComputeSkewRebalances(t *testing.T) {
	// 8 cores on 4 ranks of 2; rank 0 carries 10x the work.
	placement := blockPlacement(8, 4)
	loads := []Load{
		{Cores: 2, SynapticEvents: 10000},
		{Cores: 2, SynapticEvents: 1000},
		{Cores: 2, SynapticEvents: 1000},
		{Cores: 2, SynapticEvents: 1000},
	}
	plan, err := Compute(placement, loads, 0)
	if err != nil {
		t.Fatal(err)
	}
	if plan.MovedCores == 0 {
		t.Fatal("skewed loads produced a no-op plan")
	}
	// Rank 0 must own fewer cores than before.
	owned := make([]int, 4)
	for _, r := range plan.RankOf {
		owned[r]++
	}
	if owned[0] >= 2 {
		t.Errorf("hot rank still owns %d cores: %v", owned[0], plan.RankOf)
	}
	// Measured imbalance: max 10000 vs mean 3250 ≈ 3.08. The plan can
	// split the two hot cores (5000+epsilon each) at best one per rank,
	// so predicted max/mean ≈ 5000/3250 ≈ 1.54.
	if plan.PredictedCompute > 1.7 {
		t.Errorf("rebalanced plan predicts %.2f, want < 1.7", plan.PredictedCompute)
	}
	// Contiguity: rank IDs must be non-decreasing in core order.
	for i := 1; i < len(plan.RankOf); i++ {
		if plan.RankOf[i] < plan.RankOf[i-1] {
			t.Fatalf("chain partition not contiguous: %v", plan.RankOf)
		}
	}
}

// TestComputeRankCountChange: a plan may grow or shrink the rank count;
// every rank index must stay in range and cores must all be placed.
func TestComputeRankCountChange(t *testing.T) {
	placement := blockPlacement(12, 3)
	for _, newRanks := range []int{1, 2, 6, 12} {
		plan, err := Compute(placement, uniformLoads(3, 4, 500), newRanks)
		if err != nil {
			t.Fatalf("newRanks=%d: %v", newRanks, err)
		}
		if plan.Ranks != newRanks || len(plan.RankOf) != 12 {
			t.Fatalf("newRanks=%d: got ranks %d, %d entries", newRanks, plan.Ranks, len(plan.RankOf))
		}
		if plan.MovedCores != 12 {
			t.Errorf("newRanks=%d: rank-count change reported %d moved cores, want all 12", newRanks, plan.MovedCores)
		}
		owned := make([]int, newRanks)
		for i, r := range plan.RankOf {
			if r < 0 || r >= newRanks {
				t.Fatalf("newRanks=%d: core %d on rank %d", newRanks, i, r)
			}
			owned[r]++
		}
		// Uniform loads onto a divisor rank count must balance exactly.
		if 12%newRanks == 0 {
			for r, n := range owned {
				if n != 12/newRanks {
					t.Errorf("newRanks=%d: rank %d owns %d cores, want %d (%v)", newRanks, r, n, 12/newRanks, plan.RankOf)
				}
			}
		}
	}
}

func TestComputeErrors(t *testing.T) {
	if _, err := Compute(nil, uniformLoads(1, 1, 1), 1); err == nil {
		t.Error("empty placement accepted")
	}
	if _, err := Compute([]int{0, 0}, nil, 1); err == nil {
		t.Error("empty loads accepted")
	}
	if _, err := Compute([]int{0, 5}, uniformLoads(2, 1, 1), 2); err == nil {
		t.Error("out-of-range placement accepted")
	}
	if _, err := Compute([]int{0, 0}, uniformLoads(1, 2, 1), 3); err == nil {
		t.Error("more ranks than cores accepted")
	}
}

// TestReshapeCutsMeasuredImbalance closes the loop on a real run: a
// chunk on a skewed placement (48 of 64 cores on rank 0) must trip the
// automatic policy, and the chunk resumed from its checkpoint on the
// planned placement must measure at most half the Compute imbalance
// (max/mean synaptic events per occupied rank — a count, not a timing).
func TestReshapeCutsMeasuredImbalance(t *testing.T) {
	const (
		nCores = 64
		ranks  = 4
		chunk  = 100
	)
	m, err := experiments.SyntheticModel(ranks, nCores/ranks, 0.8, 30, 11)
	if err != nil {
		t.Fatal(err)
	}
	img, err := truenorth.NewImage(m)
	if err != nil {
		t.Fatal(err)
	}
	skew := make([]int, nCores)
	for i := 48; i < nCores; i++ {
		skew[i] = 1 + (i-48)%(ranks-1)
	}
	cfg := sim.Config{
		Ranks: ranks, ThreadsPerRank: 2, Transport: sim.TransportShmem,
		RankOf: skew, ReturnState: true,
	}
	before, err := sim.RunImage(img, cfg, chunk)
	if err != nil {
		t.Fatal(err)
	}
	imbBefore := before.LoadImbalance()
	if !(Policy{Threshold: 1.5, Interval: 1}).ShouldReshape(imbBefore, 1) {
		t.Fatalf("policy did not fire on skewed chunk (Compute %.2f)", imbBefore.Compute)
	}
	plan, err := Compute(cfg.Placement(nCores), LoadsFromStats(before), 0)
	if err != nil {
		t.Fatal(err)
	}
	run, err := cfg.Reshape(img, plan.ReshapePlan)
	if err != nil {
		t.Fatal(err)
	}
	run.StartFrom = before.Final
	after, err := sim.RunImage(img, run, chunk)
	if err != nil {
		t.Fatal(err)
	}
	imbAfter := after.LoadImbalance()
	if imbBefore.Compute < 2*imbAfter.Compute {
		t.Errorf("Compute imbalance %.2f -> %.2f (%d cores moved), want at least a 2x cut",
			imbBefore.Compute, imbAfter.Compute, plan.MovedCores)
	}
}

func TestLoadsFromStats(t *testing.T) {
	stats := &sim.RunStats{PerRank: []sim.RankStats{
		{CoresOwned: 3, SynapticEvents: 70, MessagesSent: 5},
		{CoresOwned: 1, SynapticEvents: 10, MessagesSent: 2},
	}}
	got := LoadsFromStats(stats)
	want := []Load{
		{Cores: 3, SynapticEvents: 70, MessagesSent: 5},
		{Cores: 1, SynapticEvents: 10, MessagesSent: 2},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("LoadsFromStats = %+v, want %+v", got, want)
	}
}

func TestPolicyShouldReshape(t *testing.T) {
	hot := sim.Imbalance{Compute: 2.5}
	cool := sim.Imbalance{Compute: 1.1}
	cases := []struct {
		name  string
		p     Policy
		imb   sim.Imbalance
		since int
		want  bool
	}{
		{"disabled by zero threshold", Policy{Threshold: 0, Interval: 1}, hot, 10, false},
		{"disabled by negative threshold", Policy{Threshold: -1}, hot, 10, false},
		{"hot past interval", Policy{Threshold: 2, Interval: 1}, hot, 1, true},
		{"hot but inside interval", Policy{Threshold: 2, Interval: 4}, hot, 3, false},
		{"cool past interval", Policy{Threshold: 2, Interval: 1}, cool, 9, false},
		{"threshold is inclusive", Policy{Threshold: 2.5, Interval: 1}, hot, 1, true},
		{"interval below 1 normalizes", Policy{Threshold: 2, Interval: 0}, hot, 1, true},
		{"zero boundaries never fires", Policy{Threshold: 2, Interval: 0}, hot, 0, false},
	}
	for _, tc := range cases {
		if got := tc.p.ShouldReshape(tc.imb, tc.since); got != tc.want {
			t.Errorf("%s: ShouldReshape = %v, want %v", tc.name, got, tc.want)
		}
	}
}
