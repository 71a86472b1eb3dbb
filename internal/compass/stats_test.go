package compass

import (
	"testing"

	"github.com/cognitive-sim/compass/internal/truenorth"
)

// TestDerivedRatesZeroTicks checks that every per-tick rate degrades to
// zero (not NaN or Inf) on an empty run.
func TestDerivedRatesZeroTicks(t *testing.T) {
	s := &RunStats{NumCores: 4, TotalSpikes: 100, Messages: 7, RemoteSpikes: 3, WireBytes: 60}
	if got := s.AvgFiringRateHz(); got != 0 {
		t.Errorf("AvgFiringRateHz with zero ticks = %v, want 0", got)
	}
	if got := s.MessagesPerTick(); got != 0 {
		t.Errorf("MessagesPerTick with zero ticks = %v, want 0", got)
	}
	if got := s.SpikesPerTick(); got != 0 {
		t.Errorf("SpikesPerTick with zero ticks = %v, want 0", got)
	}
	if got := s.WireBytesPerTick(); got != 0 {
		t.Errorf("WireBytesPerTick with zero ticks = %v, want 0", got)
	}
}

// TestDerivedRatesZeroCores checks the firing-rate guard against an
// empty model (neurons == 0) even when ticks ran.
func TestDerivedRatesZeroCores(t *testing.T) {
	s := &RunStats{Ticks: 10, TotalSpikes: 5}
	if got := s.AvgFiringRateHz(); got != 0 {
		t.Errorf("AvgFiringRateHz with zero cores = %v, want 0", got)
	}
}

// TestDerivedRatesValues checks the rate arithmetic on hand-computed
// numbers, including the 1 ms tick → Hz conversion.
func TestDerivedRatesValues(t *testing.T) {
	s := &RunStats{
		Ticks: 100, NumCores: 2,
		TotalSpikes: 1024, RemoteSpikes: 300, Messages: 50,
		WireBytes: 300 * truenorth.SpikeWireBytes,
	}
	// 1024 spikes / (512 neurons × 100 ticks) × 1000 = 20 Hz.
	if got := s.AvgFiringRateHz(); got != 20 {
		t.Errorf("AvgFiringRateHz = %v, want 20", got)
	}
	if got := s.MessagesPerTick(); got != 0.5 {
		t.Errorf("MessagesPerTick = %v, want 0.5", got)
	}
	if got := s.SpikesPerTick(); got != 3 {
		t.Errorf("SpikesPerTick = %v, want 3", got)
	}
	if got := s.WireBytesPerTick(); got != 3*truenorth.SpikeWireBytes {
		t.Errorf("WireBytesPerTick = %v, want %v", got, 3*truenorth.SpikeWireBytes)
	}
}

// TestLoadImbalanceEdgeCases checks the imbalance ratios on degenerate
// and idle-rank cases: no ranks, one rank, all-idle, a known skew, and
// partitions with emptied ranks, whose means must cover occupied ranks
// only so an empty rank cannot mask a hotspot.
func TestLoadImbalanceEdgeCases(t *testing.T) {
	cases := []struct {
		name    string
		perRank []RankStats
		want    Imbalance
	}{
		{name: "empty PerRank", perRank: nil, want: Imbalance{}},
		{
			name:    "single rank is balanced by definition",
			perRank: []RankStats{{CoresOwned: 7, SynapticEvents: 9, Firings: 3, MessagesSent: 2}},
			want:    Imbalance{Cores: 1, Compute: 1, Firings: 1, Sends: 1},
		},
		{
			// All-zero activity must not divide by zero; the ratio
			// convention is 1 (balanced) when the mean is zero.
			name:    "all ranks idle",
			perRank: []RankStats{{}, {}},
			want:    Imbalance{Cores: 1, Compute: 1, Firings: 1, Sends: 1, IdleRanks: 2},
		},
		{
			// Known skew: cores 3 and 1 → max/mean = 3/2.
			name: "core skew without idle ranks",
			perRank: []RankStats{
				{CoresOwned: 3, SynapticEvents: 10, Firings: 4, MessagesSent: 6},
				{CoresOwned: 1, SynapticEvents: 10, Firings: 4, MessagesSent: 0},
			},
			want: Imbalance{Cores: 1.5, Compute: 1, Firings: 1, Sends: 2},
		},
		{
			// Two equally loaded occupied ranks plus two emptied ones:
			// the occupied pair is perfectly balanced, and the empties
			// must not deflate the mean into a phantom 2x ratio.
			name: "idle ranks excluded from the mean",
			perRank: []RankStats{
				{CoresOwned: 4, SynapticEvents: 10, Firings: 4, MessagesSent: 6},
				{CoresOwned: 4, SynapticEvents: 10, Firings: 4, MessagesSent: 6},
				{}, {},
			},
			want: Imbalance{Cores: 1, Compute: 1, Firings: 1, Sends: 1, IdleRanks: 2},
		},
		{
			// A genuine hotspot next to an idle rank: with the idle rank
			// excluded, compute is 16 vs mean (16+4+4)/3 = 8 → 2x.
			name: "hotspot visible despite idle rank",
			perRank: []RankStats{
				{CoresOwned: 2, SynapticEvents: 16, Firings: 8, MessagesSent: 4},
				{CoresOwned: 1, SynapticEvents: 4, Firings: 2, MessagesSent: 1},
				{CoresOwned: 1, SynapticEvents: 4, Firings: 2, MessagesSent: 1},
				{},
			},
			want: Imbalance{Cores: 1.5, Compute: 2, Firings: 2, Sends: 2, IdleRanks: 1},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := (&RunStats{PerRank: tc.perRank}).LoadImbalance()
			if got != tc.want {
				t.Errorf("imbalance = %+v, want %+v", got, tc.want)
			}
		})
	}
}
