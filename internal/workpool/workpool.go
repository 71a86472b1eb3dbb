// Package workpool provides the shared worker-team primitives behind
// Compass's parallel phases: a spin-then-park Rendezvous (every
// per-tick wait: the transports' barriers and collectives and the
// thread team's fork and join), a persistent Pool of goroutines
// dispatched once per phase (the per-rank thread team, mirroring the
// paper's OpenMP threads), a bounded deterministic parallel-for
// (ForEach) used by the compiler's per-core instantiation, the image
// builder's kernel construction, and IPFP sweep scaling, and a Limiter
// that bounds the total workers a whole daemon spawns across any number
// of concurrent sessions and builds.
//
// All primitives are deterministic by construction as long as the work
// items are independent: every item runs exactly once with the same
// inputs regardless of worker count, so any computation whose items do
// not communicate produces bit-identical results serial or parallel.
package workpool

import (
	"context"
	"runtime"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"
)

// spinFor bounds how long a Rendezvous waiter polls before it parks:
// balanced parties meet far sooner than a futex sleep and wake-up. It
// stays short because a polling goroutine holds its P, which delays the
// netpoller for serving goroutines.
const spinFor = 100 * time.Microsecond

// Rendezvous is a reusable barrier for a fixed number of parties: every
// per-tick wait (the transports' barriers and collectives, the worker
// team's fork and join). The last arriver of each generation runs the
// optional onLast (the MPI combine step) before anyone is released, so
// its writes are visible to every party after Wait. A waiter polls the
// generation, yielding with runtime.Gosched so a peer sharing its CPU
// still runs, for at most spinFor, then parks. Abort releases every
// waiter, polling or parked, and fails every later Wait.
type Rendezvous struct {
	parties int32
	onLast  func()
	arrived atomic.Int32
	gen     atomic.Uint64
	aborted atomic.Bool
	// mu and cond serve only waiters that outlast the spin.
	mu   sync.Mutex
	cond sync.Cond
}

// NewRendezvous builds a rendezvous for parties parties (onLast may be nil).
func NewRendezvous(parties int, onLast func()) *Rendezvous {
	r := &Rendezvous{parties: int32(parties), onLast: onLast}
	r.cond.L = &r.mu
	return r
}

// Wait blocks until every party has arrived in this generation and
// reports true, or reports false if the rendezvous was aborted first.
func (r *Rendezvous) Wait() bool {
	if r.aborted.Load() {
		return false
	}
	gen := r.gen.Load()
	if r.arrived.Add(1) == r.parties {
		r.arrived.Store(0)
		if r.onLast != nil {
			r.onLast()
		}
		r.mu.Lock()
		r.gen.Store(gen + 1)
		r.cond.Broadcast()
		r.mu.Unlock()
		return true
	}
	for start := time.Now(); time.Since(start) < spinFor; {
		if r.gen.Load() != gen {
			return true
		}
		if r.aborted.Load() {
			return false
		}
		runtime.Gosched()
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for r.gen.Load() == gen && !r.aborted.Load() {
		r.cond.Wait()
	}
	return r.gen.Load() != gen
}

// Abort releases every party waiting now and fails every later Wait.
func (r *Rendezvous) Abort() {
	r.mu.Lock()
	r.aborted.Store(true)
	r.cond.Broadcast()
	r.mu.Unlock()
}

// Pool is a persistent team of goroutines that lives for a whole run,
// replacing per-phase goroutine spawning. The pool decouples the
// logical thread count (how many tids each Run covers) from the worker
// count (how many goroutines execute them): Run hands out tids from an
// atomic counter, so every tid runs exactly once per dispatch whether
// the pool was granted its full worker complement or had to share a
// daemon-wide budget (see Limiter). The caller always executes as one
// worker. A dispatch is two rendezvous over the workers: start (fork)
// publishes the phase, end (join) waits for it.
type Pool struct {
	threads    int
	fn         func(tid int)
	next       atomic.Int64
	start, end *Rendezvous
}

// New starts a full-width pool: threads logical threads served by
// threads workers (the caller plus threads-1 goroutines). It returns
// nil when one thread needs no pool (every method is nil-safe). label,
// when non-nil, returns pprof label key/value pairs for worker w, so
// CPU profiles of a run break down by owner and worker.
func New(threads int, label func(w int) []string) *Pool {
	return NewSized(threads, threads, label)
}

// NewSized starts a pool covering threads logical thread IDs with at
// most workers executing goroutines (the caller counts as one, so
// workers-1 goroutines are spawned). workers above threads is clamped;
// threads <= 1 returns nil. A pool granted fewer workers than threads
// still runs every tid on each dispatch — tids are multiplexed over the
// available workers — so shrinking a daemon-wide worker budget never
// changes results, only parallelism.
func NewSized(threads, workers int, label func(w int) []string) *Pool {
	if threads <= 1 {
		return nil
	}
	workers = max(1, min(workers, threads))
	p := &Pool{threads: threads, start: NewRendezvous(workers, nil), end: NewRendezvous(workers, nil)}
	for w := 1; w < workers; w++ {
		go func() {
			if label != nil {
				pprof.SetGoroutineLabels(pprof.WithLabels(context.Background(),
					pprof.Labels(label(w)...)))
			}
			for p.start.Wait() {
				p.runTids()
				p.end.Wait()
			}
		}()
	}
	return p
}

// runTids pulls logical thread IDs from the shared counter until every
// tid of the dispatch has been claimed.
func (p *Pool) runTids() {
	for {
		tid := p.next.Add(1) - 1
		if tid >= int64(p.threads) {
			return
		}
		p.fn(int(tid))
	}
}

// Run executes fn(tid) exactly once for every tid in [0, threads)
// across the pool's workers and returns when all are done. The caller
// participates as a worker. A nil pool runs fn(0) on the caller.
func (p *Pool) Run(fn func(tid int)) {
	if p == nil {
		fn(0)
		return
	}
	p.fn = fn
	p.next.Store(0)
	p.start.Wait()
	p.runTids()
	p.end.Wait()
}

// Stop terminates the workers; the pool must not be used afterwards.
func (p *Pool) Stop() {
	if p != nil {
		p.start.Abort()
	}
}

// ForEach runs fn(i) for every i in [0, n) across up to workers
// goroutines, partitioning the index space into contiguous blocks, and
// returns when every call is done. workers <= 1 (or n <= 1) runs on the
// caller. fn must treat items as independent; under that contract the
// results are identical for every worker count.
func ForEach(workers, n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				fn(i)
			}
		}(lo, hi)
	}
	wg.Wait()
}

// Limiter bounds the total extra workers in flight across everything
// that shares it — image builds, compiler ranks, and session runner
// pools all drawing from one daemon-wide budget, so K concurrent
// sessions no longer spawn K x GOMAXPROCS goroutines. A caller's own
// goroutine never needs a slot (work always proceeds, a starved
// acquisition just runs serially), so the limiter can never deadlock.
// A nil *Limiter is valid and grants every request in full.
type Limiter struct {
	slots chan struct{}
}

// NewLimiter builds a limiter with n grantable extra-worker slots.
// n <= 0 returns nil (unlimited).
func NewLimiter(n int) *Limiter {
	if n <= 0 {
		return nil
	}
	l := &Limiter{slots: make(chan struct{}, n)}
	for i := 0; i < n; i++ {
		l.slots <- struct{}{}
	}
	return l
}

// AcquireUpTo grabs up to want extra-worker slots without blocking and
// returns the number granted (possibly 0). Pair every grant with
// Release.
func (l *Limiter) AcquireUpTo(want int) int {
	if want <= 0 {
		return 0
	}
	if l == nil {
		return want
	}
	got := 0
	for got < want {
		select {
		case <-l.slots:
			got++
		default:
			return got
		}
	}
	return got
}

// Release returns n slots granted by AcquireUpTo.
func (l *Limiter) Release(n int) {
	if l == nil {
		return
	}
	for i := 0; i < n; i++ {
		l.slots <- struct{}{}
	}
}

// ForEachLimited is ForEach with the worker count negotiated through a
// shared limiter: the caller always runs, and up to want-1 extra
// workers join if the budget allows. A nil limiter is unlimited.
func ForEachLimited(lim *Limiter, want, n int, fn func(i int)) {
	if want > n {
		want = n
	}
	extra := lim.AcquireUpTo(want - 1)
	ForEach(1+extra, n, fn)
	lim.Release(extra)
}
