package compass

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"github.com/cognitive-sim/compass/internal/faults"
	"github.com/cognitive-sim/compass/internal/truenorth"
	"github.com/cognitive-sim/compass/internal/workpool"
)

// shmemBackend is the zero-copy in-process transport: ranks share one
// address space (they always do in this simulator), so the Network phase
// can swap per-destination spike slices directly between rank states —
// no wire encoding, no decode, no payload copy, no per-message buffering.
// It is the pluggability proof for the Transport interface and the fast
// path for the common single-process run.
//
// The window layout follows package pgas: win[dst][parity][src] is
// written only by src before the tick's barrier and drained only by dst
// after it, with double-buffered epoch parity so a writer reuses a
// parity slot only two epochs later — by which time the owner's delivery
// has finished (the intervening barrier is the happens-before edge).
// Unlike pgas, the "window" holds raw []SpikeTarget slices and Exchange
// *swaps* them: the destination keeps the sender's buffer to drain, and
// the sender takes back the slice the destination drained two epochs ago
// as its next (already warm) send buffer. Steady-state ticks allocate
// nothing and copy no spike bytes.
//
// An injected duplicate cannot literally be a second copy without
// breaking the zero-copy discipline, so the segment carries a copy
// count instead: the sender marks the swap as two copies, the drain
// delivers the targets once and counts the surplus as a dedup — the
// same observable behaviour the wire transports get from receiver-side
// deduplication.
type shmemBackend struct {
	probe *transportProbe
	tel   *Telemetry
	inj   *faults.Injector
}

func (shmemBackend) Name() string    { return "shmem" }
func (shmemBackend) RawSpikes() bool { return true }

func (b shmemBackend) Run(ranks int, fn func(rank int, ep Endpoint) error) error {
	s := newShmemSpace(ranks)
	errs := make([]error, ranks)
	var wg sync.WaitGroup
	wg.Add(ranks)
	for r := 0; r < ranks; r++ {
		go func(rank int) {
			defer wg.Done()
			ep := &shmemEndpoint{s: s, rank: rank, probe: b.probe, tel: b.tel, inj: b.inj}
			err := fn(rank, ep)
			if cerr := ep.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				if !errors.Is(err, errShmemAborted) {
					b.tel.faultAbort(rank)
				}
				s.barrier.Abort()
			}
			errs[rank] = err
		}(r)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil && !errors.Is(err, errShmemAborted) {
			return err
		}
	}
	return firstErr(errs)
}

// errShmemAborted unblocks the barrier when another rank fails.
var errShmemAborted = errors.New("compass: shmem transport aborted")

// shmemSeg is one (src, dst, parity) window slot: the swapped-in spike
// slice plus the injected-duplicate copy count (0 or 1 extra copies; only
// ever non-zero when a fault injector is attached).
type shmemSeg struct {
	targets []truenorth.SpikeTarget
	copies  uint32
}

// shmemSpace is the shared spike window plus the tick's rendezvous.
type shmemSpace struct {
	size int

	// win[dst][parity][src] is the segment deposited by src for dst
	// during epochs of that parity.
	win [][2][]shmemSeg

	// barrier closes each epoch; Abort releases every rank in it so one
	// rank's error cannot deadlock the others.
	barrier *workpool.Rendezvous
}

func newShmemSpace(size int) *shmemSpace {
	s := &shmemSpace{size: size, win: make([][2][]shmemSeg, size), barrier: workpool.NewRendezvous(size, nil)}
	for d := range s.win {
		s.win[d][0] = make([]shmemSeg, size)
		s.win[d][1] = make([]shmemSeg, size)
	}
	return s
}

// shmemEndpoint is one rank's view of the shared window.
type shmemEndpoint struct {
	s       *shmemSpace
	rank    int
	probe   *transportProbe
	tel     *Telemetry
	inj     *faults.Injector
	epoch   uint64
	nextSeg atomic.Int64
	errs    []error
}

func (ep *shmemEndpoint) Close() error { return nil }

func (ep *shmemEndpoint) Exchange(t uint64, out *Outbox, d Delivery) error {
	if err := faultEnter(ep.inj, ep.tel, ep.rank, t); err != nil {
		ep.s.barrier.Abort()
		return err
	}
	threads := d.Threads()
	errs := errScratch(&ep.errs, threads)
	parity := ep.epoch & 1
	injected := ep.inj.Active()

	var sendStart time.Time
	if ep.probe != nil {
		sendStart = time.Now()
	}

	// Publish: swap this tick's per-destination raw spike slices into the
	// destination windows. The slice taken back in return is the buffer
	// the destination finished draining two epochs ago, truncated — the
	// zero-copy analogue of a send-buffer pool. An injected delay holds
	// the rank before the swap (the epoch closes at the barrier, so the
	// publication still lands inside the tick); an injected duplicate
	// marks the segment's copy count for the drain to deduplicate.
	var swaps, spikes uint64
	for dest := 0; dest < ep.s.size; dest++ {
		if out.Counts[dest] == 0 {
			continue
		}
		copies := uint32(1)
		if injected {
			plan, err := resolveSend(ep.inj, ep.tel, ep.rank, t, dest)
			if err != nil {
				ep.s.barrier.Abort()
				return err
			}
			if plan.delay > 0 {
				time.Sleep(plan.delay)
			}
			copies = uint32(plan.copies)
		}
		swaps++
		spikes += uint64(len(out.Targets[dest]))
		w := &ep.s.win[dest][parity][ep.rank]
		out.Targets[dest], w.targets = w.targets[:0], out.Targets[dest]
		w.copies = copies
	}
	if ep.probe != nil {
		// No bytes cross a wire here; report the modeled payload the spikes
		// would occupy in the encoded transports, so cross-transport wire
		// volume stays comparable.
		ep.probe.sent(ep.rank, swaps, spikes*truenorth.SpikeWireBytes)
	}

	// There is no collective to overlap with, so every thread goes
	// straight to local delivery.
	d.Parallel(func(tid int) {
		errs[tid] = d.DeliverLocal(t, tid, threads)
	})
	localErr := firstErr(errs)
	if localErr != nil {
		ep.s.barrier.Abort()
		return localErr
	}

	var barrierStart time.Time
	if ep.probe != nil {
		ep.probe.span(ep.rank, PhaseNetSend, t, sendStart)
		barrierStart = time.Now()
	}

	if !ep.s.barrier.Wait() {
		return errShmemAborted
	}

	var drainStart time.Time
	if ep.probe != nil {
		ep.probe.span(ep.rank, PhaseNetBarrier, t, barrierStart)
		drainStart = time.Now()
	}

	// Drain: deliver every source segment of the epoch the barrier just
	// closed, segments claimed by atomic counter across threads. A copy
	// count above one is an injected duplicate, delivered once and
	// counted — the multiset handed to the cores stays identical.
	window := ep.s.win[ep.rank][parity]
	ep.nextSeg.Store(0)
	var dups atomic.Uint64
	d.Parallel(func(tid int) {
		for {
			i := int(ep.nextSeg.Add(1)) - 1
			if i >= len(window) {
				return
			}
			if len(window[i].targets) == 0 {
				continue
			}
			if window[i].copies > 1 {
				dups.Add(uint64(window[i].copies - 1))
			}
			if err := d.DeliverTargets(t, window[i].targets); err != nil {
				errs[tid] = err
				return
			}
		}
	})
	if n := dups.Load(); n > 0 {
		ep.inj.Dedup(n)
		ep.tel.faultDedup(ep.rank, n)
	}
	if ep.probe != nil {
		var depth int
		for _, seg := range window {
			if len(seg.targets) != 0 {
				depth++
			}
		}
		ep.probe.span(ep.rank, PhaseNetDrain, t, drainStart)
		ep.probe.depth(ep.rank, float64(depth))
	}
	// Truncate the drained segments so their writers can swap them back
	// as fresh send buffers at this parity's next epoch.
	for src := range window {
		window[src].targets = window[src].targets[:0]
		window[src].copies = 0
	}
	ep.epoch++
	if err := firstErr(errs); err != nil {
		ep.s.barrier.Abort()
		return err
	}
	return nil
}
