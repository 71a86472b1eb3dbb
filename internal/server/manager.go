package server

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"

	sim "github.com/cognitive-sim/compass/internal/compass"
	"github.com/cognitive-sim/compass/internal/modelcache"
	"github.com/cognitive-sim/compass/internal/perfmodel"
	"github.com/cognitive-sim/compass/internal/reshape"
	"github.com/cognitive-sim/compass/internal/telemetry"
	"github.com/cognitive-sim/compass/internal/truenorth"
	"github.com/cognitive-sim/compass/internal/workpool"
)

// ErrOverCapacity marks a session whose modelled cost exceeds the
// server's entire configured capacity: no amount of queueing will ever
// admit it.
var ErrOverCapacity = errors.New("server: session cost exceeds configured capacity")

// ErrNotFound marks an unknown session id.
var ErrNotFound = errors.New("server: no such session")

// EstimateCostPerTick prices one session in modelled seconds per
// simulated tick using the calibrated Blue Gene/Q performance model
// (internal/perfmodel) with the §VII synthetic workload assumptions
// (10 Hz firing, 75% node-local traffic, 25% crossbar density). The
// shmem transport has no machine-model projection, so it is priced as
// MPI — the decompositions do the same compute, they differ only in the
// Network phase's host mechanics.
func EstimateCostPerTick(cores, ranks, threads int, transport sim.Transport) float64 {
	if cores < 1 || ranks < 1 || threads < 1 {
		return 0
	}
	coresPerNode := (cores + ranks - 1) / ranks
	w, err := perfmodel.SyntheticUniform(ranks, coresPerNode, 10, 0.75, 0.25)
	if err != nil {
		return 0
	}
	if transport == sim.TransportShmem {
		transport = sim.TransportMPI
	}
	pt, err := perfmodel.Project(perfmodel.BlueGeneQ(), w, threads, transport)
	if err != nil {
		return 0
	}
	return pt.Total()
}

// ManagerOptions configures admission control and session defaults.
type ManagerOptions struct {
	// CapacitySecondsPerTick is the admission budget: the sum of the
	// modelled per-tick cost of all concurrently running sessions stays
	// at or below it. Sessions costing more than the whole budget are
	// rejected; sessions that merely don't fit right now are queued
	// FIFO. Zero means 1.0 modelled seconds/tick.
	CapacitySecondsPerTick float64
	// MaxRunning caps concurrently running sessions regardless of cost.
	// Zero means 16.
	MaxRunning int
	// ChunkTicks is the default per-chunk tick count: the granularity at
	// which pause, checkpoint, and drain resolve. Zero means 25.
	ChunkTicks int
	// SubscriberQueue is the per-subscriber egress ring capacity in
	// records. Zero means 65536.
	SubscriberQueue int
	// ModelCacheBytes bounds the content-addressed model image cache.
	// Zero means 2 GiB; negative means no resident cache (compilations
	// are still singleflight-deduplicated while in flight).
	ModelCacheBytes int64
	// MemoryBudgetBytes bounds the resident bytes of all concurrently
	// running sessions. Shared images are charged once per resident
	// image, not once per session; per-session runtime state is charged
	// per session. Sessions that could never fit are rejected; sessions
	// that merely don't fit right now queue FIFO. Zero means unlimited.
	MemoryBudgetBytes int64
	// DisableBatch gives every session a private batch group: its own
	// independent tick loop even when other resident sessions share its
	// model and decomposition.
	DisableBatch bool
	// MaxExtraWorkers bounds the daemon-wide pool of extra worker
	// goroutines shared by every image build, PCC compile, and session
	// rank team (each team keeps its calling goroutine and acquires up
	// to threads-1 extras from this budget). Zero means one budget of
	// GOMAXPROCS extras for the whole daemon; negative means unlimited
	// (the pre-batching behavior: every run sizes its own pools).
	MaxExtraWorkers int
	// ReshapeThreshold enables automatic elastic repartitioning: when a
	// chunk's Compute imbalance (max/mean synaptic events over occupied
	// ranks) reaches this ratio at a chunk boundary, the session's
	// placement is rebalanced from the chunk's own telemetry and the run
	// resumes on the new layout. Zero (the default) disables reshaping;
	// spike output is bit-identical either way.
	ReshapeThreshold float64
	// ReshapeInterval is the minimum number of chunk boundaries between
	// consecutive reshapes of one session (and before its first), so
	// telemetry re-accumulates on a new placement before it is judged
	// again. Values below 1 mean every boundary is eligible.
	ReshapeInterval int
}

func (o *ManagerOptions) withDefaults() ManagerOptions {
	out := *o
	if out.CapacitySecondsPerTick <= 0 {
		out.CapacitySecondsPerTick = 1.0
	}
	if out.MaxRunning <= 0 {
		out.MaxRunning = 16
	}
	if out.ChunkTicks <= 0 {
		out.ChunkTicks = 25
	}
	if out.SubscriberQueue <= 0 {
		out.SubscriberQueue = 65536
	}
	if out.ModelCacheBytes == 0 {
		out.ModelCacheBytes = 2 << 30
	}
	if out.ModelCacheBytes < 0 {
		// A 1-byte budget admits nothing resident but keeps the
		// singleflight dedup of concurrent identical builds.
		out.ModelCacheBytes = 1
	}
	return out
}

// Manager owns every session: creation with admission control, FIFO
// queueing, lookup, and the server-level metrics registry that /metrics
// merges with each session's labeled registry.
type Manager struct {
	opts  ManagerOptions
	reg   *telemetry.Registry
	cache *modelcache.Cache

	mu       sync.Mutex
	sessions map[string]*Session
	order    []string
	queue    []*Session
	used     float64
	running  int
	nextID   int
	// images tracks every image held by at least one running session,
	// by pointer identity: N sessions sharing one image charge its bytes
	// once, while N private copies of the same model charge N times.
	images  map[*truenorth.Image]*imageRef
	memUsed int64

	// limiter is the daemon-wide shared worker budget handed to every
	// compile, image build, and simulation run (nil = unlimited).
	limiter *workpool.Limiter
	// node is the daemon's instance ID, stamped into every session's
	// Info; boundary is the per-chunk checkpoint hook handed to every
	// new session (the cluster agent's checkpoint-push path).
	node     string
	boundary func(*Session)
	// groups indexes the live batch groups by batch key; batchLanes is
	// the occupancy the gauge reports (lanes in flight across groups).
	groups     map[string]*batchGroup
	batchLanes int

	// Per-scenario metrics, lazily registered on the first report for a
	// scenario label (see ScenarioReport). Reward is a running sum
	// published through a gauge because rewards are fractional.
	scnEpisodes map[string]telemetry.Counter
	scnSteps    map[string]telemetry.Counter
	scnReward   map[string]telemetry.Gauge
	scnRewardV  map[string]float64

	mCreated   telemetry.Counter
	mRejected  telemetry.Counter
	mCompleted telemetry.Counter
	mReshapes  telemetry.Counter
	gRunning   telemetry.Gauge
	gQueued    telemetry.Gauge
	gUsed      telemetry.Gauge
	gMemUsed   telemetry.Gauge
	gBatchOcc  telemetry.Gauge
	hBatchSwp  telemetry.Histogram
}

// imageRef counts the running sessions sharing one resident image.
// cacheKey, when non-empty, names the model cache entry pinned while
// the image is resident.
type imageRef struct {
	refs     int
	bytes    int64
	cacheKey string
}

// NewManager builds a manager with the given admission options.
func NewManager(opts ManagerOptions) *Manager {
	reg := telemetry.New(1)
	m := &Manager{
		opts:        opts.withDefaults(),
		reg:         reg,
		sessions:    make(map[string]*Session),
		images:      make(map[*truenorth.Image]*imageRef),
		groups:      make(map[string]*batchGroup),
		scnEpisodes: make(map[string]telemetry.Counter),
		scnSteps:    make(map[string]telemetry.Counter),
		scnReward:   make(map[string]telemetry.Gauge),
		scnRewardV:  make(map[string]float64),
		mCreated: reg.Counter("compassd_sessions_created_total",
			"sessions admitted (running or queued)"),
		mRejected: reg.Counter("compassd_sessions_rejected_total",
			"sessions rejected by admission control"),
		mCompleted: reg.Counter("compassd_sessions_completed_total",
			"sessions that reached a terminal state"),
		mReshapes: reg.Counter("compassd_reshapes_total",
			"elastic repartitions applied at chunk boundaries"),
		gRunning: reg.Gauge("compassd_sessions_running",
			"sessions currently running or paused"),
		gQueued: reg.Gauge("compassd_sessions_queued",
			"sessions waiting for capacity"),
		gUsed: reg.Gauge("compassd_capacity_used_seconds_per_tick",
			"modelled per-tick cost of all running sessions"),
		gMemUsed: reg.Gauge("compassd_memory_used_bytes",
			"resident bytes of all running sessions (shared images charged once)"),
		gBatchOcc: reg.Gauge("compassd_batch_occupancy",
			"session lanes currently advancing inside shared batched tick loops"),
		hBatchSwp: reg.Histogram("compassd_batch_sweep_seconds",
			"mean wall-clock per batched sweep (one tick of every lane in a window)",
			[]float64{1e-5, 3e-5, 1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 1e-1, 3e-1, 1}),
	}
	switch extra := m.opts.MaxExtraWorkers; {
	case extra == 0:
		m.limiter = workpool.NewLimiter(runtime.GOMAXPROCS(0))
	case extra > 0:
		m.limiter = workpool.NewLimiter(extra)
	}
	m.cache = modelcache.New(m.opts.ModelCacheBytes)
	cacheHits := reg.Counter("compassd_model_cache_hits",
		"session creates served by a resident or in-flight model image")
	cacheMisses := reg.Counter("compassd_model_cache_misses",
		"session creates that compiled a model image")
	cacheEvictions := reg.Counter("compassd_model_cache_evictions",
		"model images evicted by the cache byte budget")
	cacheResident := reg.Gauge("compassd_model_cache_resident_bytes",
		"resident bytes of cached model images")
	m.cache.SetHooks(modelcache.Hooks{
		Hit:      func() { cacheHits.Inc(0) },
		Miss:     func() { cacheMisses.Inc(0) },
		Evict:    func() { cacheEvictions.Inc(0) },
		Resident: func(b int64) { cacheResident.Set(0, float64(b)) },
	})
	return m
}

// Registry returns the server-level metrics registry.
func (m *Manager) Registry() *telemetry.Registry { return m.reg }

// ModelCache returns the manager's content-addressed image cache.
func (m *Manager) ModelCache() *modelcache.Cache { return m.cache }

// Limiter returns the daemon-wide shared worker budget (nil when
// MaxExtraWorkers is negative, i.e. unlimited).
func (m *Manager) Limiter() *workpool.Limiter { return m.limiter }

// SetNode names the hosting daemon instance; every session created
// afterwards reports it in Info.Node.
func (m *Manager) SetNode(id string) {
	m.mu.Lock()
	m.node = id
	m.mu.Unlock()
}

// Node returns the daemon instance ID.
func (m *Manager) Node() string {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.node
}

// SetBoundaryHook installs a callback invoked by every session runner
// after each successfully completed chunk, with the session parked at
// its new boundary checkpoint. The cluster agent uses it to push
// boundary checkpoints to the coordinator. Install before creating
// sessions; the hook must not block indefinitely (it runs on the
// session's runner goroutine between chunks).
func (m *Manager) SetBoundaryHook(fn func(*Session)) {
	m.mu.Lock()
	m.boundary = fn
	m.mu.Unlock()
}

// UsedCapacity returns the summed modelled per-tick cost of running
// sessions (the admission gauge's value, for cluster heartbeats).
func (m *Manager) UsedCapacity() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.used
}

// Capacity returns the configured admission budget in modelled seconds
// per tick; MemoryBudget the configured resident-byte budget (0 means
// unlimited). Both feed cluster heartbeats and placement.
func (m *Manager) Capacity() float64 { return m.opts.CapacitySecondsPerTick }

// MemoryBudget returns the configured memory budget (0 = unlimited).
func (m *Manager) MemoryBudget() int64 { return m.opts.MemoryBudgetBytes }

// ResidentImageHashes lists the content hashes of every image held by
// at least one running or paused session — the coordinator's affinity
// signal for co-locating same-model sessions.
func (m *Manager) ResidentImageHashes() []string {
	m.mu.Lock()
	imgs := make([]*truenorth.Image, 0, len(m.images))
	for img := range m.images {
		imgs = append(imgs, img)
	}
	m.mu.Unlock()
	out := make([]string, 0, len(imgs))
	for _, img := range imgs {
		out = append(out, img.Hash())
	}
	return out
}

// FindImageByHash locates a resident image by content hash — first
// among images held by running sessions, then in the model cache — so
// a peer daemon can pull a model for migration without recompiling.
// The second result is the model cache key when the image came from
// the cache ("" otherwise); ok reports whether anything was found.
func (m *Manager) FindImageByHash(hash string) (img *truenorth.Image, cacheKey string, ok bool) {
	m.mu.Lock()
	candidates := make([]*truenorth.Image, 0, len(m.images))
	keys := make([]string, 0, len(m.images))
	for im, ref := range m.images {
		candidates = append(candidates, im)
		keys = append(keys, ref.cacheKey)
	}
	m.mu.Unlock()
	for i, im := range candidates {
		if im.Hash() == hash {
			return im, keys[i], true
		}
	}
	if e := m.cache.ByImageHash(hash); e != nil {
		return e.Image, e.Key, true
	}
	return nil, "", false
}

// CreateParams describes one session to admit.
type CreateParams struct {
	// Name is an optional human label.
	Name string
	// Image is the immutable model image the session simulates against.
	// Sessions created with the same Image pointer (e.g. from a model
	// cache hit) share it copy-on-write and are charged its bytes once.
	// When nil, one is built privately from Model.
	Image *truenorth.Image
	// Model is the instantiated network the session simulates. Ignored
	// when Image is set (the image carries the model).
	Model *truenorth.Model
	// Cfg is the decomposition (ranks, threads, transport, placement).
	Cfg sim.Config
	// Ticks is the number of ticks to simulate (from StartFrom's tick
	// when resuming, from tick 0 otherwise).
	Ticks uint64
	// ChunkTicks overrides the manager's default chunk size when > 0.
	ChunkTicks int
	// StartFrom optionally resumes the session from a checkpoint (e.g.
	// one written by a previous daemon's graceful shutdown).
	StartFrom *truenorth.Checkpoint
	// StartPaused parks the session at tick 0 (or StartFrom's tick)
	// before any chunk runs, so clients can attach streams and observe
	// the run from its very first spike. Resume releases it.
	StartPaused bool
	// CacheKey, when non-empty, names the model cache entry Image came
	// from; the manager pins the entry while any running session holds
	// the image resident, so the LRU can never evict an in-use image.
	CacheKey string
	// Placement records how the session landed on this daemon ("local"
	// when empty; the coordinator stamps its placement decision).
	Placement string
	// Scenario labels the closed-loop workload that will drive the
	// session (a scenario registry name). It is reported in Info and
	// keys the per-scenario telemetry fed by ScenarioReport.
	Scenario string
}

// Create admits a new session. The session starts immediately when
// capacity allows, otherwise it queues FIFO. Create returns
// ErrOverCapacity when the session could never run.
func (m *Manager) Create(p CreateParams) (*Session, error) {
	img := p.Image
	if img == nil {
		if p.Model == nil {
			return nil, errors.New("server: create needs an image or a model")
		}
		var err error
		img, err = truenorth.NewImage(p.Model)
		if err != nil {
			return nil, fmt.Errorf("server: session model invalid: %w", err)
		}
	}
	if err := p.Cfg.ValidateImage(img); err != nil {
		return nil, err
	}
	cost := EstimateCostPerTick(img.NumCores(), p.Cfg.Ranks, p.Cfg.ThreadsPerRank, p.Cfg.Transport)
	if cost > m.opts.CapacitySecondsPerTick {
		m.mRejected.Inc(0)
		return nil, fmt.Errorf("%w: %.3gs/tick modelled vs %.3gs/tick budget",
			ErrOverCapacity, cost, m.opts.CapacitySecondsPerTick)
	}
	if b := m.opts.MemoryBudgetBytes; b > 0 && img.ImageBytes()+img.StateBytes() > b {
		m.mRejected.Inc(0)
		return nil, fmt.Errorf("%w: %d bytes resident vs %d bytes budget",
			ErrOverCapacity, img.ImageBytes()+img.StateBytes(), b)
	}

	m.mu.Lock()
	m.nextID++
	id := fmt.Sprintf("s%06d", m.nextID)
	m.mu.Unlock()

	chunk := p.ChunkTicks
	if chunk <= 0 {
		chunk = m.opts.ChunkTicks
	}
	cfg := p.Cfg
	cfg.Workers = m.limiter
	s, err := newSession(id, p.Name, img, cfg, p.Ticks, chunk, cost, m.opts.SubscriberQueue, m.release)
	if err != nil {
		return nil, err
	}
	s.cacheKey = p.CacheKey
	m.mu.Lock()
	s.node = m.node
	s.onBoundary = m.boundary
	m.mu.Unlock()
	s.placement = p.Placement
	if s.placement == "" {
		s.placement = "local"
	}
	if p.StartFrom != nil {
		if err := img.ValidateCheckpoint(p.StartFrom); err != nil {
			return nil, fmt.Errorf("server: start checkpoint: %w", err)
		}
		s.cp = p.StartFrom
	}
	if p.StartPaused {
		// The runner has not launched yet, so this is race-free: it
		// parks at the loop top before simulating anything.
		s.pauseReq = true
	}
	drops := m.reg.Counter("compassd_stream_dropped_records_total",
		"egress records evicted by drop-oldest backpressure, per session",
		telemetry.Label{Key: "session", Value: id})
	s.sink.onDrop = func(n uint64) { drops.Add(0, n) }
	s.scenario = p.Scenario
	rtt := newRTTTracker(m.reg.Histogram("compassd_stream_rtt_seconds",
		"inject→first-egress round trip through the session's tick loop, per session",
		rttBounds, telemetry.Label{Key: "session", Value: id}))
	s.rtt = rtt
	s.source.onInject = rtt.noteInject
	s.sink.onEmit = rtt.noteEgress
	s.reshapePolicy = reshape.Policy{Threshold: m.opts.ReshapeThreshold, Interval: m.opts.ReshapeInterval}
	s.onReshape = m.noteReshape
	gImb := m.reg.Gauge("compassd_session_compute_imbalance",
		"latest chunk's Compute imbalance (max/mean synaptic events over occupied ranks), per session",
		telemetry.Label{Key: "session", Value: id})
	s.gImbalance = &gImb

	m.mu.Lock()
	m.sessions[id] = s
	m.order = append(m.order, id)
	m.mCreated.Inc(0)
	if m.canStartLocked(s) {
		m.startLocked(s)
	} else {
		m.queue = append(m.queue, s)
	}
	m.refreshGaugesLocked()
	m.mu.Unlock()
	return s, nil
}

// memNeedLocked prices a session's incremental memory: its private
// runtime state always, plus its image's bytes only when no running
// session already holds that image resident. Callers hold mu.
func (m *Manager) memNeedLocked(s *Session) int64 {
	need := s.img.StateBytes()
	if _, resident := m.images[s.img]; !resident {
		need += s.img.ImageBytes()
	}
	return need
}

// canStartLocked checks slot, compute, and memory admission. Callers
// hold mu.
func (m *Manager) canStartLocked(s *Session) bool {
	if m.running >= m.opts.MaxRunning || m.used+s.cost > m.opts.CapacitySecondsPerTick {
		return false
	}
	if b := m.opts.MemoryBudgetBytes; b > 0 && m.memUsed+m.memNeedLocked(s) > b {
		return false
	}
	return true
}

// startLocked charges capacity and memory and launches the runner.
// Image bytes are charged once per resident image — the second session
// sharing an image only pays for its private runtime state. The first
// session holding a cache-built image also pins its cache entry, and
// the session joins (or founds) the batch group for its (model hash,
// decomposition) so same-model sessions advance under one shared tick
// loop. Callers hold mu.
//
// The session's start claim is taken first: a queued session cancelled
// concurrently (abortQueued holds only the session lock) can reach a
// terminal state between a caller's state check and here, and charging
// it would leak capacity forever since its runner — the only path to
// release — never launches. startLocked reports whether it started the
// session; false means it was already terminal and nothing was charged.
func (m *Manager) startLocked(s *Session) bool {
	if !s.beginStart() {
		return false
	}
	m.used += s.cost
	m.running++
	ref := m.images[s.img]
	if ref == nil {
		ref = &imageRef{bytes: s.img.ImageBytes(), cacheKey: s.cacheKey}
		m.images[s.img] = ref
		m.memUsed += ref.bytes
		if ref.cacheKey != "" {
			m.cache.Pin(ref.cacheKey)
		}
	}
	ref.refs++
	m.memUsed += s.img.StateBytes()
	m.joinGroupLocked(s, s.cfg)
	go s.run()
	return true
}

// joinGroupLocked routes s to the batch group for decomposition cfg,
// founding it when s is the first member and leaving any group s was in
// before. With batching disabled, or with fault injection armed (a fault
// plan belongs to one session), the group is private: keyed by the
// session's own ID so nobody else ever joins it. Callers hold mu.
func (m *Manager) joinGroupLocked(s *Session, cfg sim.Config) {
	key := batchKey(s.img, cfg)
	private := m.opts.DisableBatch || cfg.Faults != nil
	if private {
		key += "|" + s.ID
	}
	if old := s.group; old != nil {
		if old.key == key {
			return
		}
		m.leaveGroupLocked(old)
	}
	g := m.groups[key]
	if g == nil {
		g = newBatchGroup(key, s.img, cfg)
		if private {
			g.private = true
			g.cfg.Telemetry = s.tel
		} else {
			g.onWindow = m.batchWindow
			g.onWindowDone = m.batchWindowDone
		}
		m.groups[key] = g
	}
	g.refs++
	// Under the session lock: a queued session promoted here can have
	// its Info read concurrently.
	s.setGroup(g)
}

// leaveGroupLocked drops one member of g, retiring the group with its
// last one. Callers hold mu.
func (m *Manager) leaveGroupLocked(g *batchGroup) {
	g.refs--
	if g.refs <= 0 {
		delete(m.groups, g.key)
	}
}

// batchWindow and batchWindowDone maintain the batch occupancy gauge
// and the per-sweep latency histogram; called from group window loops.
func (m *Manager) batchWindow(lanes int) {
	m.mu.Lock()
	m.batchLanes += lanes
	m.gBatchOcc.Set(0, float64(m.batchLanes))
	m.mu.Unlock()
}

func (m *Manager) batchWindowDone(lanes int, sweepSeconds float64) {
	m.mu.Lock()
	m.batchLanes -= lanes
	if m.batchLanes < 0 {
		m.batchLanes = 0
	}
	m.gBatchOcc.Set(0, float64(m.batchLanes))
	m.mu.Unlock()
	if sweepSeconds > 0 {
		m.hBatchSwp.Observe(0, sweepSeconds)
	}
}

// release returns a finished session's capacity and memory and starts
// queued sessions that now fit. It is the session runner's exit
// callback. The image charge is refunded only when the last session
// sharing the image exits.
func (m *Manager) release(s *Session) {
	m.mu.Lock()
	m.used -= s.cost
	if m.used < 0 {
		m.used = 0
	}
	m.running--
	m.memUsed -= s.img.StateBytes()
	if ref := m.images[s.img]; ref != nil {
		ref.refs--
		if ref.refs <= 0 {
			delete(m.images, s.img)
			m.memUsed -= ref.bytes
			if ref.cacheKey != "" {
				m.cache.Unpin(ref.cacheKey)
			}
		}
	}
	m.leaveGroupLocked(s.group)
	if m.memUsed < 0 {
		m.memUsed = 0
	}
	m.mCompleted.Inc(0)
	m.promoteLocked()
	m.refreshGaugesLocked()
	m.mu.Unlock()
}

// promoteLocked starts queued sessions in FIFO order while capacity
// lasts, skipping sessions that were stopped while queued. A false
// return from startLocked means the session terminalized after the
// capacity check; it is dropped from the queue with nothing charged.
func (m *Manager) promoteLocked() {
	keep := m.queue[:0]
	for _, s := range m.queue {
		if s.State().Terminal() {
			continue
		}
		if m.canStartLocked(s) {
			m.startLocked(s)
			continue
		}
		keep = append(keep, s)
	}
	for i := len(keep); i < len(m.queue); i++ {
		m.queue[i] = nil
	}
	m.queue = keep
}

func (m *Manager) refreshGaugesLocked() {
	m.gRunning.Set(0, float64(m.running))
	m.gQueued.Set(0, float64(len(m.queue)))
	m.gUsed.Set(0, m.used)
	m.gMemUsed.Set(0, float64(m.memUsed))
}

// MemoryUsed returns the resident bytes charged to running sessions.
func (m *Manager) MemoryUsed() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.memUsed
}

// Get looks a session up by id.
func (m *Manager) Get(id string) (*Session, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	s, ok := m.sessions[id]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	return s, nil
}

// List returns every session's status in creation order.
func (m *Manager) List() []Info {
	m.mu.Lock()
	ids := append([]string(nil), m.order...)
	m.mu.Unlock()
	out := make([]Info, 0, len(ids))
	for _, id := range ids {
		if s, err := m.Get(id); err == nil {
			out = append(out, s.Info())
		}
	}
	return out
}

// Stop cancels a session. Queued sessions cancel in place; running
// sessions unwind at the next tick boundary via context cancellation.
func (m *Manager) Stop(id string) error {
	s, err := m.Get(id)
	if err != nil {
		return err
	}
	if s.abortQueued(StateCancelled, context.Canceled) {
		m.mu.Lock()
		m.promoteLocked()
		m.refreshGaugesLocked()
		m.mu.Unlock()
		return nil
	}
	s.Stop()
	return nil
}

// Remove stops a session and deletes it from the index once its runner
// has exited.
func (m *Manager) Remove(id string) error {
	if err := m.Stop(id); err != nil {
		return err
	}
	s, err := m.Get(id)
	if err != nil {
		return err
	}
	s.Wait()
	m.mu.Lock()
	delete(m.sessions, id)
	for i, oid := range m.order {
		if oid == id {
			m.order = append(m.order[:i], m.order[i+1:]...)
			break
		}
	}
	m.refreshGaugesLocked()
	m.mu.Unlock()
	return nil
}

// DrainAll parks every session at its next chunk boundary and waits for
// all runners to exit; used by graceful shutdown. It returns every
// non-failed session that holds a checkpoint, paired with its id.
func (m *Manager) DrainAll() []*Session {
	m.mu.Lock()
	all := make([]*Session, 0, len(m.sessions))
	for _, s := range m.sessions {
		all = append(all, s)
	}
	m.mu.Unlock()
	for _, s := range all {
		s.Drain()
	}
	out := make([]*Session, 0, len(all))
	for _, s := range all {
		s.Wait()
		if st := s.State(); st == StateDrained || st == StatePaused || st == StateDone {
			out = append(out, s)
		}
	}
	return out
}

// MetricsSnapshot merges the server-level registry with every
// session's labeled registry into one snapshot; WritePrometheus on the
// result is a single valid exposition because HELP/TYPE lines dedup by
// metric name.
func (m *Manager) MetricsSnapshot() *telemetry.Snapshot {
	snap := m.reg.Snapshot()
	m.mu.Lock()
	ids := append([]string(nil), m.order...)
	m.mu.Unlock()
	for _, id := range ids {
		s, err := m.Get(id)
		if err != nil {
			continue
		}
		if sub := s.tel.Registry().Snapshot(); sub != nil {
			snap.Metrics = append(snap.Metrics, sub.Metrics...)
		}
	}
	return snap
}

// ScenarioReport folds one closed-loop progress report into the
// per-scenario telemetry: episode and step counters plus a running
// reward sum, all labeled by scenario name and lazily registered on a
// scenario's first report.
func (m *Manager) ScenarioReport(scenario string, episodes, steps uint64, reward float64) {
	if scenario == "" {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	ep, ok := m.scnEpisodes[scenario]
	if !ok {
		lbl := telemetry.Label{Key: "scenario", Value: scenario}
		ep = m.reg.Counter("compassd_scenario_episodes_total",
			"closed-loop scenario episodes completed, per scenario", lbl)
		m.scnEpisodes[scenario] = ep
		m.scnSteps[scenario] = m.reg.Counter("compassd_scenario_steps_total",
			"closed-loop scenario decision steps completed, per scenario", lbl)
		m.scnReward[scenario] = m.reg.Gauge("compassd_scenario_reward_total",
			"running sum of scenario reward, per scenario", lbl)
	}
	ep.Add(0, episodes)
	m.scnSteps[scenario].Add(0, steps)
	m.scnRewardV[scenario] += reward
	m.scnReward[scenario].Set(0, m.scnRewardV[scenario])
}

// Counts returns (running, queued, total) session counts.
func (m *Manager) Counts() (running, queued, total int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.running, len(m.queue), len(m.sessions)
}
