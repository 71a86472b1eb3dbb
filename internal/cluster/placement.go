package cluster

import (
	"errors"
	"fmt"
	"sort"
)

// Placement ranks nodes by what the coordinator can count without
// waiting for a heartbeat. Affinity comes first: nodes already holding
// the session's model image resident are preferred (the image is shared
// copy-on-write and same-model sessions join one batched tick loop).
// Then the node hosting the fewest live sessions the coordinator has
// placed there wins, and the node ID breaks ties. The chosen daemon
// admits the session by its own counted limits (running slots and the
// memory budget): it starts it, queues it FIFO, or refuses it, and a
// refusal is relayed with the daemon's status.

// ErrNoEligibleNode is place's refusal: no registered node is alive and
// accepting placements. The create route answers it with 429, as a
// daemon answers server.ErrOverCapacity.
var ErrNoEligibleNode = errors.New("cluster: no eligible node")

// place picks the node for a session of the given model hash ("" when
// unknown): affinity first, then the fewest live cluster sessions, then
// the lowest node ID. Nodes in exclude and draining nodes are skipped.
func (c *Coordinator) place(modelHash string, exclude map[string]bool) (*node, string, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	sessions := c.liveSessionsLocked()
	type cand struct {
		n        *node
		affinity bool
		sessions int
	}
	var cands []cand
	for _, n := range c.aliveNodesLocked() {
		if n.draining || exclude[n.id] {
			continue
		}
		cands = append(cands, cand{
			n:        n,
			affinity: modelHash != "" && n.resident[modelHash],
			sessions: sessions[n.id],
		})
	}
	if len(cands) == 0 {
		return nil, "", fmt.Errorf("%w: no node is alive and accepting sessions", ErrNoEligibleNode)
	}
	// aliveNodesLocked sorts by ID, so the stable sort breaks ties by it.
	sort.SliceStable(cands, func(i, j int) bool {
		if cands[i].affinity != cands[j].affinity {
			return cands[i].affinity
		}
		return cands[i].sessions < cands[j].sessions
	})
	best := cands[0]
	if best.affinity {
		return best.n, "model-affinity", nil
	}
	return best.n, "fewest-sessions", nil
}

// liveSessionsLocked counts the live cluster sessions on each node: the
// placement load signal and NodeStatus.Sessions. Callers hold mu.
func (c *Coordinator) liveSessionsLocked() map[string]int {
	sessions := make(map[string]int, len(c.nodes))
	for _, r := range c.recs {
		if !r.ended {
			sessions[r.nodeID]++
		}
	}
	return sessions
}
