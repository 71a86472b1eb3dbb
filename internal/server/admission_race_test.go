package server

import (
	"sync"
	"testing"
	"time"

	sim "github.com/cognitive-sim/compass/internal/compass"
)

// TestQueuedCancelPromotionRace regression-tests the admission
// accounting race where a queued session cancelled concurrently with a
// promotion sweep could take a slot and memory without its runner ever
// launching — leaking the slot forever. Each round parks one session in
// the single running slot, queues a victim behind it, then races the
// victim's cancellation against the holder's completion (whose release
// triggers promotion). Whatever interleaving wins, the accounting must
// return to zero and the slot must stay usable.
func TestQueuedCancelPromotionRace(t *testing.T) {
	srv := startTestServer(t, ManagerOptions{MaxRunning: 1, ChunkTicks: 5})
	mgr := srv.Manager()
	cfg := sim.Config{Ranks: 1, ThreadsPerRank: 1, Transport: sim.TransportShmem}

	for i := 0; i < 25; i++ {
		holder, err := mgr.Create(CreateParams{
			Name: "holder", Model: testModel(2, uint64(1000+i)),
			Cfg: cfg, Ticks: 5, StartPaused: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		victim, err := mgr.Create(CreateParams{
			Name: "victim", Model: testModel(2, uint64(2000+i)),
			Cfg: cfg, Ticks: 5,
		})
		if err != nil {
			t.Fatal(err)
		}
		if st := victim.State(); st != StateQueued {
			t.Fatalf("round %d: victim state %s, want queued", i, st)
		}

		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			if err := mgr.Stop(victim.ID); err != nil {
				t.Errorf("stop victim: %v", err)
			}
		}()
		go func() {
			defer wg.Done()
			if err := holder.Resume(); err != nil {
				t.Errorf("resume holder: %v", err)
			}
		}()
		wg.Wait()
		holder.Wait()
		victim.Wait()

		// The victim either died in the queue or won promotion first and
		// was cancelled (or even finished) as a running session; every
		// outcome is legal, but none may strand accounting.
		if st := victim.State(); !st.Terminal() {
			t.Fatalf("round %d: victim state %s, want terminal", i, st)
		}
		if err := mgr.Remove(holder.ID); err != nil {
			t.Fatal(err)
		}
		if err := mgr.Remove(victim.ID); err != nil {
			t.Fatal(err)
		}
	}

	running, queued, total := mgr.Counts()
	if running != 0 || queued != 0 || total != 0 {
		t.Fatalf("sessions leaked: running=%d queued=%d total=%d", running, queued, total)
	}
	if mem := mgr.MemoryUsed(); mem != 0 {
		t.Fatalf("memory leak: %d bytes still charged", mem)
	}

	// The single running slot must still be grantable: a leaked
	// m.running count would queue this forever.
	s, err := mgr.Create(CreateParams{
		Name: "after", Model: testModel(2, 3000), Cfg: cfg, Ticks: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !s.WaitState(30*time.Second, func(st State) bool { return st == StateDone }) {
		t.Fatalf("slot leaked: follow-up session stuck in %s", s.State())
	}
}
