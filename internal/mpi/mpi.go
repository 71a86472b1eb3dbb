// Package mpi is a message-passing runtime implemented in pure Go that
// provides the MPI primitives Compass is written against.
//
// The paper's Compass runs one MPI process per Blue Gene node and
// communicates through MPICH2. This repository has no MPI and no
// multi-node machine, so the runtime here supplies the same semantics in
// process: every rank is a goroutine, point-to-point messages are
// delivered in FIFO order per (source, destination) pair with tag
// matching, and the collectives Compass uses (Barrier, Reduce-scatter,
// Allreduce, Alltoall, Gather) synchronize all ranks of the world. The
// simulator's communication *algorithm* — aggregation into one message
// per destination per tick, reduce-scatter to learn incoming message
// counts, probe/receive loops — runs unchanged on top of this runtime,
// which is what makes its message and byte counts faithful to the paper's
// at any model scale.
//
// The runtime also counts every message and byte sent, because Figure 4(b)
// of the paper reports exactly those quantities.
package mpi

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/cognitive-sim/compass/internal/workpool"
)

// AnySource matches messages from every rank in Recv and Probe.
const AnySource = -1

// AnyTag matches messages with every tag in Recv and Probe.
const AnyTag = -1

// ErrAborted is returned from blocking operations when another rank
// failed and the world was torn down.
var ErrAborted = errors.New("mpi: world aborted")

// envelope is one in-flight point-to-point message.
type envelope struct {
	src  int
	tag  int
	data []byte
	seq  uint64
}

// mailbox is the per-rank incoming message queue.
type mailbox struct {
	mu   sync.Mutex
	cond *sync.Cond
	q    []envelope
}

// World is a communicator spanning a fixed set of ranks.
type World struct {
	size  int
	boxes []*mailbox
	seq   atomic.Uint64

	aborted atomic.Bool

	// collective state: each rank deposits its contribution and combine
	// step, then meets the others at coll. sums and sumScatter (bound
	// once) keep the per-tick ReduceScatterSum allocation-free.
	coll       *workpool.Rendezvous
	cvecs      [][]int64
	cresults   [][]int64
	ccombine   []func(vecs, results [][]int64)
	sums       []int64
	sumScatter func(vecs, results [][]int64)

	// traffic accounting
	msgsSent  atomic.Uint64
	bytesSent atomic.Uint64
}

// NewWorld creates a world with size ranks.
func NewWorld(size int) *World {
	if size < 1 {
		panic(fmt.Sprintf("mpi: world size %d < 1", size))
	}
	w := &World{
		size:     size,
		boxes:    make([]*mailbox, size),
		cvecs:    make([][]int64, size),
		cresults: make([][]int64, size),
		ccombine: make([]func(vecs, results [][]int64), size),
		sums:     make([]int64, size),
	}
	for i := range w.boxes {
		b := &mailbox{}
		b.cond = sync.NewCond(&b.mu)
		w.boxes[i] = b
	}
	w.coll = workpool.NewRendezvous(size, w.combine)
	w.sumScatter = w.reduceScatterSum
	return w
}

// Size returns the number of ranks in the world.
func (w *World) Size() int { return w.size }

// Stats returns the total messages and payload bytes sent so far.
func (w *World) Stats() (messages, bytes uint64) {
	return w.msgsSent.Load(), w.bytesSent.Load()
}

// ResetStats zeroes the traffic counters.
func (w *World) ResetStats() {
	w.msgsSent.Store(0)
	w.bytesSent.Store(0)
}

// abort marks the world failed and wakes every blocked rank.
func (w *World) abort() {
	w.aborted.Store(true)
	for _, b := range w.boxes {
		b.mu.Lock()
		b.cond.Broadcast()
		b.mu.Unlock()
	}
	w.coll.Abort()
}

// Comm is one rank's handle to the world.
type Comm struct {
	w    *World
	rank int
}

// Comm returns the handle for rank r.
func (w *World) Comm(r int) *Comm {
	if r < 0 || r >= w.size {
		panic(fmt.Sprintf("mpi: rank %d outside world of size %d", r, w.size))
	}
	return &Comm{w: w, rank: r}
}

// Rank returns this communicator's rank.
func (c *Comm) Rank() int { return c.rank }

// Size returns the world size.
func (c *Comm) Size() int { return c.w.size }

// Isend sends data to rank dst with the given tag. The send is
// non-blocking and buffered; data is copied, so the caller may reuse the
// slice immediately. Self-sends are permitted.
func (c *Comm) Isend(dst, tag int, data []byte) error {
	if dst < 0 || dst >= c.w.size {
		return fmt.Errorf("mpi: send to rank %d outside world of size %d", dst, c.w.size)
	}
	if c.w.aborted.Load() {
		return ErrAborted
	}
	cp := make([]byte, len(data))
	copy(cp, data)
	env := envelope{src: c.rank, tag: tag, data: cp, seq: c.w.seq.Add(1)}
	b := c.w.boxes[dst]
	b.mu.Lock()
	b.q = append(b.q, env)
	b.cond.Broadcast()
	b.mu.Unlock()
	c.w.msgsSent.Add(1)
	c.w.bytesSent.Add(uint64(len(data)))
	return nil
}

// match reports whether env satisfies the (src, tag) selector.
func match(env *envelope, src, tag int) bool {
	return (src == AnySource || env.src == src) && (tag == AnyTag || env.tag == tag)
}

// Recv blocks until a message matching (src, tag) arrives and returns its
// payload and actual source. Messages between a fixed (source,
// destination) pair are received in the order they were sent.
func (c *Comm) Recv(src, tag int) (data []byte, from int, err error) {
	b := c.w.boxes[c.rank]
	b.mu.Lock()
	defer b.mu.Unlock()
	for {
		if c.w.aborted.Load() {
			return nil, 0, ErrAborted
		}
		if i := b.findLocked(src, tag); i >= 0 {
			env := b.q[i]
			b.q = append(b.q[:i], b.q[i+1:]...)
			return env.data, env.src, nil
		}
		b.cond.Wait()
	}
}

// findLocked returns the queue index of the earliest-sent matching
// message, or -1. The caller holds the mailbox lock.
func (b *mailbox) findLocked(src, tag int) int {
	best := -1
	for i := range b.q {
		if match(&b.q[i], src, tag) {
			if best == -1 || b.q[i].seq < b.q[best].seq {
				best = i
			}
		}
	}
	return best
}

// Iprobe reports without blocking whether a message matching (src, tag)
// is available, and if so its source and payload size.
func (c *Comm) Iprobe(src, tag int) (ok bool, from, nbytes int) {
	b := c.w.boxes[c.rank]
	b.mu.Lock()
	defer b.mu.Unlock()
	if i := b.findLocked(src, tag); i >= 0 {
		return true, b.q[i].src, len(b.q[i].data)
	}
	return false, 0, 0
}

// Probe blocks until a message matching (src, tag) is available and
// returns its source and payload size without consuming it.
func (c *Comm) Probe(src, tag int) (from, nbytes int, err error) {
	b := c.w.boxes[c.rank]
	b.mu.Lock()
	defer b.mu.Unlock()
	for {
		if c.w.aborted.Load() {
			return 0, 0, ErrAborted
		}
		if i := b.findLocked(src, tag); i >= 0 {
			return b.q[i].src, len(b.q[i].data), nil
		}
		b.cond.Wait()
	}
}

// PendingMessages returns the number of messages queued for this rank.
func (c *Comm) PendingMessages() int {
	b := c.w.boxes[c.rank]
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.q)
}

// collective runs one step of the world's generic collective machinery:
// every rank contributes a vector; when the last rank arrives, combine is
// called once with all contributions, filling the per-rank results;
// every rank then returns its own result slot. Every rank passes the
// same combine step, and rank 0's runs. Contribution vectors may be nil
// for data-free collectives (Barrier).
func (c *Comm) collective(contrib []int64, combine func(vecs, results [][]int64)) ([]int64, error) {
	w := c.w
	if w.aborted.Load() {
		return nil, ErrAborted
	}
	w.cvecs[c.rank] = contrib
	w.ccombine[c.rank] = combine
	if !w.coll.Wait() {
		return nil, ErrAborted
	}
	return w.cresults[c.rank], nil
}

// combine is the collective rendezvous's last-arriver step.
func (w *World) combine() {
	if f := w.ccombine[0]; f != nil {
		f(w.cvecs, w.cresults)
	}
}

// Barrier blocks until every rank in the world has entered it.
func (c *Comm) Barrier() error {
	_, err := c.collective(nil, nil)
	return err
}

// ReduceScatterSum implements the MPI_Reduce_scatter pattern Compass uses
// to learn how many point-to-point messages to expect: every rank
// contributes a vector of length Size() whose element d is the count it
// is sending to rank d; the call returns, at each rank, the sum over all
// ranks of that rank's element — the number of incoming messages.
func (c *Comm) ReduceScatterSum(counts []int64) (int64, error) {
	if len(counts) != c.w.size {
		return 0, fmt.Errorf("mpi: ReduceScatterSum vector length %d != world size %d", len(counts), c.w.size)
	}
	res, err := c.collective(counts, c.w.sumScatter)
	if err != nil {
		return 0, err
	}
	return res[0], nil
}

// reduceScatterSum is ReduceScatterSum's combine step. Each rank reads
// its result before it can enter the next collective, so sums is reused.
func (w *World) reduceScatterSum(vecs, results [][]int64) {
	for r := range results {
		w.sums[r] = 0
		for _, v := range vecs {
			w.sums[r] += v[r]
		}
		results[r] = w.sums[r : r+1 : r+1]
	}
}

// AllreduceSum returns, at every rank, the element-wise sum of vals over
// all ranks.
func (c *Comm) AllreduceSum(vals []int64) ([]int64, error) {
	n := len(vals)
	res, err := c.collective(vals, func(vecs, results [][]int64) {
		sum := make([]int64, n)
		for _, v := range vecs {
			for i, x := range v {
				sum[i] += x
			}
		}
		for r := range results {
			results[r] = sum
		}
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// AllreduceMax returns, at every rank, the element-wise maximum of vals
// over all ranks.
func (c *Comm) AllreduceMax(vals []int64) ([]int64, error) {
	n := len(vals)
	res, err := c.collective(vals, func(vecs, results [][]int64) {
		max := make([]int64, n)
		copy(max, vecs[0])
		for _, v := range vecs[1:] {
			for i, x := range v {
				if x > max[i] {
					max[i] = x
				}
			}
		}
		for r := range results {
			results[r] = max
		}
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// Bcast distributes root's vector to every rank.
func (c *Comm) Bcast(root int, vals []int64) ([]int64, error) {
	if root < 0 || root >= c.w.size {
		return nil, fmt.Errorf("mpi: Bcast root %d outside world of size %d", root, c.w.size)
	}
	var contrib []int64
	if c.rank == root {
		contrib = vals
	}
	res, err := c.collective(contrib, func(vecs, results [][]int64) {
		for r := range results {
			results[r] = vecs[root]
		}
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// Gather collects every rank's vector at root, concatenated in rank
// order; non-root ranks receive nil.
func (c *Comm) Gather(root int, vals []int64) ([]int64, error) {
	if root < 0 || root >= c.w.size {
		return nil, fmt.Errorf("mpi: Gather root %d outside world of size %d", root, c.w.size)
	}
	res, err := c.collective(vals, func(vecs, results [][]int64) {
		var all []int64
		for _, v := range vecs {
			all = append(all, v...)
		}
		for r := range results {
			if r == root {
				results[r] = all
			} else {
				results[r] = nil
			}
		}
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// Alltoall exchanges one int64 with every rank: element d of the
// contribution goes to rank d, and element s of the result came from rank
// s. Compass's compiler uses this to negotiate white-matter connection
// counts between region processes.
func (c *Comm) Alltoall(vals []int64) ([]int64, error) {
	if len(vals) != c.w.size {
		return nil, fmt.Errorf("mpi: Alltoall vector length %d != world size %d", len(vals), c.w.size)
	}
	res, err := c.collective(vals, func(vecs, results [][]int64) {
		for r := range results {
			out := make([]int64, len(vecs))
			for s, v := range vecs {
				out[s] = v[r]
			}
			results[r] = out
		}
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// Run launches fn on every rank of a fresh world of the given size and
// waits for all ranks to finish. The first non-nil error aborts the world
// (unblocking every rank) and is returned.
func Run(size int, fn func(c *Comm) error) error {
	w := NewWorld(size)
	return w.Run(fn)
}

// Run launches fn on every rank of this world and waits for completion.
func (w *World) Run(fn func(c *Comm) error) error {
	errs := make([]error, w.size)
	var wg sync.WaitGroup
	wg.Add(w.size)
	for r := 0; r < w.size; r++ {
		go func(rank int) {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					errs[rank] = fmt.Errorf("mpi: rank %d panicked: %v", rank, p)
					w.abort()
				}
			}()
			if err := fn(w.Comm(rank)); err != nil {
				errs[rank] = err
				w.abort()
			}
		}(r)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil && !errors.Is(err, ErrAborted) {
			return err
		}
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
