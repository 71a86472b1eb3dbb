package cluster

import (
	"runtime"
	"runtime/debug"
	"testing"
	"time"
)

// TestReusableTimerNoPerWaitAllocs checks the property the retry loops
// rely on: arming, waiting out, and disarming one reusableTimer over
// and over allocates nothing per cycle (versus one live timer per
// iteration with time.After).
func TestReusableTimerNoPerWaitAllocs(t *testing.T) {
	rt := newReusableTimer()
	defer rt.Disarm()
	if avg := testing.AllocsPerRun(500, func() {
		<-rt.Arm(time.Microsecond)
	}); avg > 0.5 {
		t.Errorf("arm+wait cycle allocates %.1f objects, want 0", avg)
	}
	if avg := testing.AllocsPerRun(500, func() {
		rt.Arm(time.Hour)
		rt.Disarm()
	}); avg > 0.5 {
		t.Errorf("arm+disarm cycle allocates %.1f objects, want 0", avg)
	}
	// Disarm after an expiry that was never received must leave the
	// timer cleanly re-armable (the Reset-while-fired hazard).
	rt.Arm(time.Microsecond)
	time.Sleep(5 * time.Millisecond)
	rt.Disarm()
	select {
	case <-rt.Arm(time.Millisecond):
	case <-time.After(5 * time.Second):
		t.Fatal("re-armed timer never fired after an unconsumed expiry")
	}
}

// TestDialLoopCancelledLeavesNoPendingTimers is the regression test for
// the per-iteration time.After churn in the proxy dial-retry loop: a
// dial loop that spins against an unreachable owner and is then
// cancelled must reuse one timer (bounded allocation) and leave no
// goroutines behind. Before the fix, every retry pass allocated a timer
// that stayed pending in the runtime until it fired.
func TestDialLoopCancelledLeavesNoPendingTimers(t *testing.T) {
	oldRetry := proxyDialRetry
	proxyDialRetry = 100 * time.Microsecond
	defer func() { proxyDialRetry = oldRetry }()

	c := NewCoordinator(Options{})
	r := &rec{clusterID: "cs-timer", nodeID: "n1"}
	p := &proxyConn{c: c, r: r, update: make(chan struct{}, 1)}

	runCancelledLoop := func() {
		clientGone := make(chan struct{})
		p.clientGone = clientGone
		done := make(chan struct{})
		go func() {
			defer close(done)
			// Empty stream address: the owner is unreachable, so the
			// loop is pure retry-timer churn until cancelled.
			if up, ok := p.dialUpstream(r.gen, "", ""); ok {
				up.Close()
				t.Error("dialUpstream connected with no owner address")
			}
		}()
		time.Sleep(30 * time.Millisecond) // ~300 retry waits
		close(clientGone)
		<-done
	}

	// Warm up once (lazily initialized runtime state must not count).
	runCancelledLoop()

	goroutines := runtime.NumGoroutine()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const loops = 8
	for i := 0; i < loops; i++ {
		runCancelledLoop()
	}
	runtime.ReadMemStats(&after)

	// ~2400 retry waits ran. With per-iteration time.After each wait
	// allocates a timer+channel (≈200 B, ≥450 KiB total); the reused
	// timer allocates once per loop. Everything else in the loop
	// (snapshot, select) is allocation-free, so a generous 128 KiB
	// bound separates the two regimes without flaking.
	if delta := after.TotalAlloc - before.TotalAlloc; delta > 128<<10 {
		t.Errorf("cancelled dial loops allocated %d bytes over %d loops, want bounded timer reuse (< 128 KiB)",
			delta, loops)
	}
	if now := runtime.NumGoroutine(); now > goroutines {
		t.Errorf("goroutines grew from %d to %d across cancelled dial loops", goroutines, now)
	}
}
