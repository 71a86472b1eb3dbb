package truenorth

import (
	"fmt"

	"github.com/cognitive-sim/compass/internal/prng"
)

// MaxLanes is the largest number of sessions one batch group can
// advance together. The bound comes from the spike wire format (the
// lane rides one byte, see SpikeTarget.Lane) and from the batched
// scheduler's per-destination lane bitmasks, which use one uint64 word.
const MaxLanes = 64

// CoreLanes is the batched-execution state of one core: the runtime
// state of every session lane laid out contiguously, so a sweep that
// iterates cores in the outer loop and lanes in the inner loop touches
// the core's shared immutable half (crossbar planes, the bit-parallel
// kernel, neuron parameters) once per tick while walking the lanes'
// membrane potentials, delay rings, and PRNG streams sequentially in
// memory. One CoreLanes with n lanes is bit-equivalent to n private
// Cores built by Image.NewCore: the Core values only differ in where
// they live.
type CoreLanes struct {
	// lanes[s] is session lane s's live core state; the backing array is
	// one contiguous allocation. rngs keeps the per-lane PRNG streams
	// contiguous too (Core holds its stream by pointer).
	lanes []Core
	rngs  []prng.Stream
}

// NewCoreLanes instantiates batched runtime state for core i: n session
// lanes, each starting at the identical initial state Image.NewCore
// would produce. n must be in [1, MaxLanes].
func (img *Image) NewCoreLanes(i, n int) (*CoreLanes, error) {
	if n < 1 || n > MaxLanes {
		return nil, fmt.Errorf("truenorth: %d lanes outside [1,%d]", n, MaxLanes)
	}
	cfg := img.cores[i]
	cl := &CoreLanes{
		lanes: make([]Core, n),
		rngs:  make([]prng.Stream, n),
	}
	for s := 0; s < n; s++ {
		cl.rngs[s] = *prng.NewCoreStream(img.seed, uint64(cfg.ID))
		cl.lanes[s] = Core{
			cfg:     cfg,
			rng:     &cl.rngs[s],
			kern:    img.kernels[i],
			hot:     img.hot[i],
			passive: img.passive[i],
		}
	}
	return cl, nil
}

// NumLanes returns the number of session lanes.
func (cl *CoreLanes) NumLanes() int { return len(cl.lanes) }

// Lane returns session lane s's live core state. The pointer stays
// valid for the CoreLanes' lifetime; all lanes share one backing array.
func (cl *CoreLanes) Lane(s int) *Core { return &cl.lanes[s] }

// ID returns the global core ID all lanes share.
func (cl *CoreLanes) ID() CoreID { return cl.lanes[0].cfg.ID }

// Config returns the shared core configuration.
func (cl *CoreLanes) Config() *CoreConfig { return cl.lanes[0].cfg }

// ForceScalar pins every lane to the reference Synapse and Neuron paths
// and disables quiescent-core skipping, mirroring Core.ForceScalar.
func (cl *CoreLanes) ForceScalar() {
	for s := range cl.lanes {
		cl.lanes[s].ForceScalar()
	}
}
