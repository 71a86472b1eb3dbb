package workpool

import (
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestRendezvousRounds: N parties over many rounds. The last arriver's
// callback runs exactly once per round, before anyone is released, and
// what it wrote is visible to every party after Wait (the race detector
// checks the happens-before edge).
func TestRendezvousRounds(t *testing.T) {
	for _, parties := range []int{1, 2, 3, 5} {
		const rounds = 2000
		var calls int // written only by onLast
		r := NewRendezvous(parties, func() { calls++ })
		var wg sync.WaitGroup
		var aborted, stale atomic.Int64
		for p := 0; p < parties; p++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				// A party keeps arriving after a bad round, so that one
				// failure cannot strand the others.
				for round := 1; round <= rounds; round++ {
					if !r.Wait() {
						aborted.Add(1)
					}
					if calls != round {
						stale.Add(1)
					}
				}
			}()
		}
		wg.Wait()
		if aborted.Load() != 0 || stale.Load() != 0 {
			t.Fatalf("%d parties: %d waits reported an abort, %d saw a callback count out of step with the round",
				parties, aborted.Load(), stale.Load())
		}
		if calls != rounds {
			t.Fatalf("%d parties: callback ran %d times over %d rounds", parties, calls, rounds)
		}
	}
}

// parked reports whether some goroutine is asleep on the rendezvous's
// condition variable, i.e. has outlasted the spin.
func parked() bool {
	buf := make([]byte, 1<<20)
	stacks := string(buf[:runtime.Stack(buf, true)])
	for _, g := range strings.Split(stacks, "\n\n") {
		if strings.Contains(g, "sync.(*Cond).Wait") && strings.Contains(g, "(*Rendezvous).Wait") {
			return true
		}
	}
	return false
}

// TestRendezvousAbortReleasesWaiters: Abort releases a waiter whether it
// is still polling or already parked, the released waiter reports the
// abort, and every later Wait fails at once.
func TestRendezvousAbortReleasesWaiters(t *testing.T) {
	t.Run("spinning", func(t *testing.T) {
		// Abort as soon as the waiter has arrived: well inside the spin
		// bound on most iterations.
		for i := 0; i < 100; i++ {
			r := NewRendezvous(2, nil)
			done := make(chan bool, 1)
			go func() { done <- r.Wait() }()
			for r.arrived.Load() == 0 {
				runtime.Gosched()
			}
			r.Abort()
			select {
			case ok := <-done:
				if ok {
					t.Fatal("aborted waiter reported a normal release")
				}
			case <-time.After(5 * time.Second):
				t.Fatal("Abort did not release a spinning waiter")
			}
		}
	})
	t.Run("parked", func(t *testing.T) {
		r := NewRendezvous(3, nil)
		done := make(chan bool, 2)
		for i := 0; i < 2; i++ {
			go func() { done <- r.Wait() }()
		}
		deadline := time.Now().Add(5 * time.Second)
		for !parked() {
			if time.Now().After(deadline) {
				t.Fatal("waiter never parked")
			}
			time.Sleep(time.Millisecond)
		}
		r.Abort()
		for i := 0; i < 2; i++ {
			select {
			case ok := <-done:
				if ok {
					t.Fatal("aborted waiter reported a normal release")
				}
			case <-time.After(5 * time.Second):
				t.Fatal("Abort did not release a parked waiter")
			}
		}
		if r.Wait() {
			t.Fatal("Wait after Abort reported a normal release")
		}
	})
}

// TestRendezvousParkedWaiterReleased: a waiter that outlasted the spin
// is woken by the last arrival, not only by Abort.
func TestRendezvousParkedWaiterReleased(t *testing.T) {
	r := NewRendezvous(2, nil)
	done := make(chan bool, 1)
	go func() { done <- r.Wait() }()
	deadline := time.Now().Add(5 * time.Second)
	for !parked() {
		if time.Now().After(deadline) {
			t.Fatal("waiter never parked")
		}
		time.Sleep(time.Millisecond)
	}
	if !r.Wait() || !<-done {
		t.Fatal("last arrival did not release the parked waiter")
	}
}

// TestPoolRunsEveryTidOnce: every logical thread ID runs exactly once
// per Run, at full width and with fewer workers than threads.
func TestPoolRunsEveryTidOnce(t *testing.T) {
	for _, c := range []struct{ threads, workers int }{
		{2, 2}, {4, 4}, {5, 2}, {8, 3}, {3, 1},
	} {
		p := NewSized(c.threads, c.workers, nil)
		counts := make([]atomic.Int32, c.threads)
		for run := 1; run <= 500; run++ {
			p.Run(func(tid int) { counts[tid].Add(1) })
			for tid := range counts {
				if n := counts[tid].Load(); n != int32(run) {
					p.Stop()
					t.Fatalf("%d threads on %d workers, run %d: tid %d ran %d times in total",
						c.threads, c.workers, run, tid, n)
				}
			}
		}
		p.Stop()
	}
	if p := New(1, nil); p != nil {
		t.Fatal("one thread built a pool")
	}
	ran := -1
	(*Pool)(nil).Run(func(tid int) { ran = tid })
	if ran != 0 {
		t.Fatalf("nil pool ran tid %d, want 0", ran)
	}
}

// TestPoolStopReleasesWorkers: after Stop the worker goroutines exit,
// whether they were polling for the next dispatch or parked, and the
// goroutine count returns to its baseline.
func TestPoolStopReleasesWorkers(t *testing.T) {
	base := runtime.NumGoroutine()
	var pools []*Pool
	for i := 0; i < 4; i++ {
		p := New(4, func(w int) []string { return []string{"worker", "w"} })
		p.Run(func(int) {})
		pools = append(pools, p)
	}
	pools[0].Stop() // workers still polling after their Run
	time.Sleep(10 * time.Millisecond)
	for _, p := range pools[1:] {
		p.Stop() // workers parked
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Stop, baseline %d", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}
