package server

import (
	"bytes"
	"testing"
	"time"

	sim "github.com/cognitive-sim/compass/internal/compass"
)

// skewedRankOf crams most cores onto rank 0: with nCores cores and
// ranks ranks, all but ranks-1 cores land on rank 0 and the rest get
// one core each — a worst-case hand-written placement.
func skewedRankOf(nCores, ranks int) []int {
	out := make([]int, nCores)
	for i := ranks - 1; i >= 1; i-- {
		out[nCores-(ranks-i)] = i
	}
	return out
}

// TestAutoReshapeAtChunkBoundary: a session created with a pathological
// placement must trigger the automatic reshape policy at its first
// eligible chunk boundary, rebalance its cores across ranks, record the
// event in Info, and still finish with a checkpoint bit-identical to a
// session that never reshaped.
func TestAutoReshapeAtChunkBoundary(t *testing.T) {
	model := testModel(8, 31)
	const ticks = 60
	cfg := sim.Config{Ranks: 4, ThreadsPerRank: 1, RankOf: skewedRankOf(8, 4)}

	mgr := NewManager(ManagerOptions{
		CapacitySecondsPerTick: 1e9,
		ChunkTicks:             10,
		ReshapeThreshold:       1.2,
		ReshapeInterval:        1,
		DisableBatch:           true,
	})
	s, err := mgr.Create(CreateParams{Name: "skewed", Cfg: cfg, Model: model, Ticks: ticks})
	if err != nil {
		t.Fatal(err)
	}
	if !s.WaitState(60*time.Second, func(st State) bool { return st == StateDone }) {
		t.Fatalf("session state %s, want done (err %v)", s.State(), s.Err())
	}

	info := s.Info()
	if len(info.Reshapes) == 0 {
		t.Fatal("skewed session finished without a single reshape event")
	}
	ev := info.Reshapes[0]
	if ev.Tick == 0 || ev.Tick%10 != 0 {
		t.Errorf("reshape at tick %d, want a chunk boundary", ev.Tick)
	}
	if ev.FromRanks != 4 || ev.ToRanks != 4 {
		t.Errorf("auto reshape changed rank count: %d -> %d", ev.FromRanks, ev.ToRanks)
	}
	if ev.MovedCores == 0 {
		t.Error("reshape event reports no cores moved")
	}
	if ev.ComputeBefore < 1.2 {
		t.Errorf("reshape fired below threshold: measured %.2f", ev.ComputeBefore)
	}
	if ev.ComputePredicted >= ev.ComputeBefore {
		t.Errorf("reshape predicts no improvement: %.2f -> %.2f", ev.ComputeBefore, ev.ComputePredicted)
	}

	// The new placement must actually spread cores off the hot rank.
	owned := make([]int, 4)
	for _, r := range s.Cfg().Placement(8) {
		owned[r]++
	}
	if owned[0] >= 5 {
		t.Errorf("rank 0 still owns %d of 8 cores after reshape: %v", owned[0], owned)
	}

	// Determinism: identical final checkpoint to a never-reshaped run of
	// the same skewed session.
	want := ckptBytes(t, refFinal(t, model, ticks))
	if got := ckptBytes(t, s.Checkpoint()); !bytes.Equal(got, want) {
		t.Fatal("reshaped session checkpoint differs from straight skewed run")
	}

	if mgr.Registry().Snapshot() == nil {
		t.Fatal("nil metrics snapshot")
	}
}

// TestAutoReshapeDisabledByDefault: with no threshold configured a
// skewed session must never reshape.
func TestAutoReshapeDisabledByDefault(t *testing.T) {
	model := testModel(6, 32)
	mgr := NewManager(ManagerOptions{CapacitySecondsPerTick: 1e9, ChunkTicks: 5})
	cfg := sim.Config{Ranks: 3, ThreadsPerRank: 1, RankOf: skewedRankOf(6, 3)}
	s, err := mgr.Create(CreateParams{Cfg: cfg, Model: model, Ticks: 20})
	if err != nil {
		t.Fatal(err)
	}
	if !s.WaitState(60*time.Second, func(st State) bool { return st == StateDone }) {
		t.Fatalf("session state %s, want done (err %v)", s.State(), s.Err())
	}
	if got := s.Info().Reshapes; len(got) != 0 {
		t.Fatalf("reshaping disabled but %d events recorded", len(got))
	}
}

// TestReshapeRegroupsBatchedSession: when a batched session reshapes,
// it must leave its old batch group (keyed by placement) and finish in
// a fresh one, still bit-identical to a straight run — while a sibling
// session that keeps the old placement stays behind in the old group.
func TestReshapeRegroupsBatchedSession(t *testing.T) {
	model := testModel(8, 33)
	const ticks = 80
	skew := sim.Config{Ranks: 4, ThreadsPerRank: 1, RankOf: skewedRankOf(8, 4)}

	mgr := NewManager(ManagerOptions{
		CapacitySecondsPerTick: 1e9,
		ChunkTicks:             10,
		ReshapeThreshold:       1.2,
		ReshapeInterval:        100, // sibling never reshapes (interval unreachable)
	})
	// Sibling shares the skewed decomposition but its policy interval
	// keeps it from ever reshaping.
	sib, err := mgr.Create(CreateParams{Name: "sibling", Cfg: skew, Model: model, Ticks: ticks})
	if err != nil {
		t.Fatal(err)
	}
	oldGroup := sib.Info().BatchGroup
	if oldGroup == "" {
		t.Fatal("sibling not batched")
	}
	// Lower the mover's interval so it reshapes at its first boundary.
	mov, err := mgr.Create(CreateParams{Name: "mover", Cfg: skew, Image: sib.Image(), Ticks: ticks})
	if err != nil {
		t.Fatal(err)
	}
	mov.mu.Lock()
	mov.reshapePolicy.Interval = 1
	mov.mu.Unlock()

	for _, s := range []*Session{sib, mov} {
		if !s.WaitState(60*time.Second, func(st State) bool { return st == StateDone }) {
			t.Fatalf("session %s state %s, want done (err %v)", s.Name, s.State(), s.Err())
		}
	}
	if len(mov.Info().Reshapes) == 0 {
		t.Fatal("mover never reshaped")
	}
	if got := mov.Info().BatchGroup; got == oldGroup || got == "" {
		t.Fatalf("mover batch group %q, want a fresh group (old %q)", got, oldGroup)
	}
	if got := sib.Info().BatchGroup; got != oldGroup {
		t.Fatalf("sibling batch group changed: %q -> %q", got, oldGroup)
	}
	want := ckptBytes(t, refFinal(t, model, ticks))
	for _, s := range []*Session{sib, mov} {
		if got := ckptBytes(t, s.Checkpoint()); !bytes.Equal(got, want) {
			t.Fatalf("session %s checkpoint differs from straight run", s.Name)
		}
	}
}
