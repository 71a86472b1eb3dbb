package cluster

import (
	"bytes"
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"sort"

	sim "github.com/cognitive-sim/compass/internal/compass"
	"github.com/cognitive-sim/compass/internal/coreobject"
	"github.com/cognitive-sim/compass/internal/server"
)

// Placement uses the same cost function as single-node admission —
// server.EstimateCostPerTick over the calibrated Blue Gene performance
// model — extended cluster-wide: a session's modelled seconds/tick is
// charged against the candidate node's capacity budget. Affinity comes
// first: nodes already holding the session's model image resident are
// preferred (the image is shared copy-on-write and same-model sessions
// join one batched tick loop), then the least-utilized candidate wins.

// estimateCores guesses the session's core count from its source
// without compiling: the cocomac request's core parameter, the spec's
// region sum, or the binary model header's numCores field. Placement
// only needs the right order of magnitude for the cost model.
func estimateCores(src *server.SourceSpec) int {
	switch src.Kind {
	case "cocomac":
		if src.Cores > 0 {
			return src.Cores
		}
		return 128
	case "spec":
		var spec coreobject.NetworkSpec
		if err := json.Unmarshal(src.Spec, &spec); err == nil {
			if n := spec.TotalCores(); n > 0 {
				return n
			}
		}
	case "model":
		raw, err := base64.StdEncoding.DecodeString(src.ModelBase64)
		// Header: "CMPM" | u32 version | u64 seed | u64 numCores | ...
		if err == nil && len(raw) >= 24 && bytes.Equal(raw[:4], []byte("CMPM")) {
			if n := binary.LittleEndian.Uint64(raw[16:24]); n > 0 && n < 1<<28 {
				return int(n)
			}
		}
	}
	return 128
}

// requestCost prices a create request for placement.
func requestCost(req *server.CreateRequest) float64 {
	ranks, threads := req.Ranks, req.Threads
	if ranks <= 0 {
		ranks = 1
	}
	if threads <= 0 {
		threads = 1
	}
	transport := sim.TransportShmem
	if req.Transport != "" {
		if t, err := sim.ParseTransport(req.Transport); err == nil {
			transport = t
		}
	}
	return server.EstimateCostPerTick(estimateCores(&req.Source), ranks, threads, transport)
}

// exportCost prices an export document (migration/restore placement).
func exportCost(doc *server.ExportDoc) float64 {
	transport := sim.TransportShmem
	if doc.Transport != "" {
		if t, err := sim.ParseTransport(doc.Transport); err == nil {
			transport = t
		}
	}
	cores := checkpointCores(doc.CheckpointBase64)
	if cores <= 0 {
		cores = 128
	}
	ranks, threads := doc.Ranks, doc.Threads
	if ranks <= 0 {
		ranks = 1
	}
	if threads <= 0 {
		threads = 1
	}
	return server.EstimateCostPerTick(cores, ranks, threads, transport)
}

// checkpointCores reads numCores from a base64 CMPC header without
// materializing the checkpoint.
func checkpointCores(ckptBase64 string) int {
	// Header: "CMPC" | u32 version | u64 tick | u64 numCores. 24 header
	// bytes need 32 base64 characters.
	take := 32
	if len(ckptBase64) < take {
		take = len(ckptBase64)
	}
	raw, err := base64.StdEncoding.WithPadding(base64.NoPadding).DecodeString(ckptBase64[:take&^3])
	if err != nil || len(raw) < 24 || !bytes.Equal(raw[:4], []byte("CMPC")) {
		return 0
	}
	if n := binary.LittleEndian.Uint64(raw[16:24]); n > 0 && n < 1<<28 {
		return int(n)
	}
	return 0
}

// ErrNoEligibleNode is place's refusal: no registered node could ever
// host the session. The create route answers it with 429, as a daemon
// answers server.ErrOverCapacity.
var ErrNoEligibleNode = errors.New("cluster: no eligible node")

// place picks the node for a session of the given modelled cost,
// preferring nodes with the model already resident, then the lowest
// relative utilization. Nodes in exclude, draining, or whose whole
// capacity the session exceeds are skipped. When no node has headroom
// right now, the least-utilized eligible node still wins — its
// admission queue holds the session FIFO, mirroring single-node
// behavior.
func (c *Coordinator) place(cost float64, modelHash string, exclude map[string]bool) (*node, string, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	alive := c.aliveNodesLocked()
	type cand struct {
		n        *node
		affinity bool
		util     float64
		headroom bool
	}
	var cands []cand
	for _, n := range alive {
		if n.draining || exclude[n.id] {
			continue
		}
		if cost > n.capacity {
			continue // would be rejected outright
		}
		cands = append(cands, cand{
			n:        n,
			affinity: modelHash != "" && n.resident[modelHash],
			util:     n.used / n.capacity,
			headroom: n.used+cost <= n.capacity,
		})
	}
	if len(cands) == 0 {
		return nil, "", fmt.Errorf("%w for session costing %.3g s/tick", ErrNoEligibleNode, cost)
	}
	sort.SliceStable(cands, func(i, j int) bool {
		if cands[i].affinity != cands[j].affinity {
			return cands[i].affinity
		}
		if cands[i].headroom != cands[j].headroom {
			return cands[i].headroom
		}
		return cands[i].util < cands[j].util
	})
	best := cands[0]
	reason := "least-utilized"
	switch {
	case best.affinity:
		reason = "model-affinity"
	case !best.headroom:
		reason = "queued"
	}
	return best.n, reason, nil
}
