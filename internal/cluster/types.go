// Package cluster scales compassd from one daemon to a fleet: a
// coordinator tracks nodes through registration and heartbeats, places
// new sessions by model affinity (so same-model sessions co-locate and
// share images and batch groups) and then on the node hosting the
// fewest of its sessions, and moves live sessions between nodes by
// checkpoint-based migration — the determinism contract makes a
// migrated run bit-identical to an unmigrated one. Migration is the one
// primitive behind three behaviors: explicit migrate requests, rolling
// drains on SIGTERM, and failover when a node's heartbeats lapse,
// restored from the boundary checkpoints its agent pushed.
//
// See DESIGN.md §5h for the architecture and failure-mode analysis.
package cluster

import (
	"github.com/cognitive-sim/compass/internal/server"
)

// RegisterRequest announces a compassd node to the coordinator. A
// re-registration under the same NodeID replaces the previous entry
// (daemon restart); sessions the old incarnation hosted are restored
// elsewhere once their absence is noticed.
type RegisterRequest struct {
	NodeID string `json:"node_id"`
	// HTTPAddr and StreamAddr are the node's advertised planes.
	HTTPAddr   string `json:"http_addr"`
	StreamAddr string `json:"stream_addr"`
	// MemoryBudget is the node's resident-byte budget (0 = unlimited).
	MemoryBudget int64 `json:"memory_budget_bytes,omitempty"`
}

// RegisterResponse tells the node how often to heartbeat.
type RegisterResponse struct {
	HeartbeatMillis int64 `json:"heartbeat_millis"`
}

// SessionPulse is one hosted session's state inside a heartbeat.
type SessionPulse struct {
	ID    string `json:"id"`
	State string `json:"state"`
	Error string `json:"error,omitempty"`
}

// Heartbeat is a node's periodic liveness and load report. Beyond
// liveness it carries the load it counts, the resident model hashes
// (the placement affinity signal), and a pulse per hosted session so the coordinator
// notices terminal states (and crash-faulted sessions needing
// restoration) without polling.
type Heartbeat struct {
	NodeID   string         `json:"node_id"`
	MemUsed  int64          `json:"memory_used_bytes"`
	Resident []string       `json:"resident_models,omitempty"`
	Running  int            `json:"running"`
	Queued   int            `json:"queued"`
	Sessions []SessionPulse `json:"sessions,omitempty"`
}

// CheckpointPush is a node agent's per-chunk boundary report: the
// session's full export document, so the coordinator can restore the
// session on another node from this exact boundary if the node dies.
type CheckpointPush struct {
	NodeID        string           `json:"node_id"`
	NodeSessionID string           `json:"node_session_id"`
	Export        server.ExportDoc `json:"export"`
}

// MigrateRequest asks the coordinator to move a session; an empty
// Target lets placement choose.
type MigrateRequest struct {
	Target string `json:"target,omitempty"`
}

// SessionStatus is the coordinator's view of one cluster session.
type SessionStatus struct {
	ClusterID string `json:"cluster_id"`
	Node      string `json:"node"`
	// Generation counts ownership changes (migrations + restores).
	Generation int `json:"generation"`
	Migrations int `json:"migrations"`
	Restores   int `json:"restores"`
	// CommittedTick is the egress release horizon: every spike record
	// with a lower tick has a durable checkpoint behind it and has been
	// released to stream subscribers.
	CommittedTick uint64 `json:"committed_tick"`
	ModelHash     string `json:"model_hash,omitempty"`
	Ended         bool   `json:"ended"`
	EndState      string `json:"end_state,omitempty"`
	// Info is the owning node's live session document when reachable.
	Info *server.Info `json:"info,omitempty"`
}

// NodeStatus is the coordinator's view of one node.
type NodeStatus struct {
	ID           string   `json:"id"`
	HTTPAddr     string   `json:"http_addr"`
	StreamAddr   string   `json:"stream_addr"`
	MemoryBudget int64    `json:"memory_budget_bytes,omitempty"`
	MemUsed      int64    `json:"memory_used_bytes"`
	Running      int      `json:"running"`
	Queued       int      `json:"queued"`
	Sessions     int      `json:"cluster_sessions"`
	Resident     []string `json:"resident_models,omitempty"`
	Draining     bool     `json:"draining"`
	AgeSeconds   float64  `json:"last_heartbeat_age_seconds"`
	Alive        bool     `json:"alive"`
}
