package cluster

import (
	"fmt"
	"sync"
	"time"

	"github.com/cognitive-sim/compass/internal/server"
)

// The migration protocol (planned move of a live session A→B):
//
//  1. Export on A: POST /v1/sessions/{id}/export pauses the session at
//     its next chunk boundary and returns the portable document —
//     hash-stamped checkpoint, pending stream spikes, decomposition,
//     remaining ticks. Every spike record A emitted has a tick below
//     the boundary, so the proxy's committed horizon (== the boundary)
//     releases all of A's egress and nothing is lost or duplicated.
//  2. Import on B (start-paused): B resolves the model by content hash
//     — resident image, wire pull from A (GET /v1/models/{hash}), or
//     rebuild from the original source — then validates the checkpoint
//     against it and recreates the session parked at the boundary.
//  3. Re-attach: if a stream proxy client is following the session,
//     the coordinator waits for the proxy to re-dial B before any
//     resumed tick can fire, so egress from the first post-boundary
//     tick onward is observed.
//  4. Delete on A (the paused remnant's subscriber queues drain and
//     its egress stream closes cleanly), then resume on B.
//
// Both planned migration and failover re-cursor the coordinator's
// inject forwarder to the boundary (adoptOwner) and then wait for it to
// catch up (awaitInjectSync) before resuming: a spike injected through
// the proxy around the export snapshot may have reached only the doomed
// owner — or nobody — and the journal is the one copy guaranteed to
// survive. Re-sending the whole suffix is safe because same-tick
// duplicate delivery is idempotent; the catch-up barrier matters
// because a spike delivered after the destination passed its stamped
// tick would land late, at the wrong tick, breaking bit-identity.
//
// Failover replaces step 1 with the last *pushed* boundary document
// (the node agent pushes one per chunk) and skips the source cleanup
// (the owner is gone). Replay from an older
// boundary re-emits records the proxy already held above its committed
// horizon; those are dropped at the ownership change, so subscribers
// still see each record exactly once. Determinism makes the replayed
// ticks bit-identical to the lost ones.

// CreateSession places a new session on the cluster and returns the
// owner's session document under the session's cluster ID.
func (c *Coordinator) CreateSession(req *server.CreateRequest) (*server.Info, error) {
	cost := requestCost(req)
	// Affinity: if an earlier session with the same source resolved to
	// a model hash, prefer nodes holding that image.
	hash := c.knownHashForSource(req)
	n, reason, err := c.place(cost, hash, nil)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	c.next++
	clusterID := fmt.Sprintf("c%06d", c.next)
	c.mu.Unlock()

	fwd := *req
	fwd.Placement = fmt.Sprintf("coordinator:%s:%s", reason, n.id)
	info, err := n.client.Create(&fwd)
	if err != nil {
		return nil, err
	}
	r := &rec{
		clusterID:     clusterID,
		req:           *req,
		nodeID:        n.id,
		nodeSessionID: info.ID,
		placedAt:      time.Now(),
		modelHash:     info.ModelHash,
		userPaused:    req.StartPaused,
	}
	c.mu.Lock()
	c.recs[clusterID] = r
	n.resident[info.ModelHash] = true
	c.mu.Unlock()
	info.ID = clusterID
	c.logf("session %s placed on %s (%s, %.3g s/tick)", clusterID, n.id, reason, cost)
	return info, nil
}

// knownHashForSource returns the model hash an identical source
// resolved to earlier, for placement affinity ("" when unknown).
func (c *Coordinator) knownHashForSource(req *server.CreateRequest) string {
	key := sourceKey(&req.Source, req.Ranks)
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, r := range c.recs {
		if r.modelHash != "" && sourceKey(&r.req.Source, r.req.Ranks) == key {
			return r.modelHash
		}
	}
	return ""
}

// sourceKey canonicalizes a source for affinity matching. The compiled
// image hash depends on the source document and the compiler rank
// count, so both participate.
func sourceKey(src *server.SourceSpec, ranks int) string {
	return fmt.Sprintf("%s|%d|%d|%d|%d|%s|%d",
		src.Kind, src.Seed, src.Cores, src.InputTicks, len(src.Spec), src.ModelBase64, ranks)
}

// Migrate moves a live session to target (or a placement-chosen node)
// and returns the updated status. The session must currently have a
// reachable owner; failover handles the unreachable case.
func (c *Coordinator) Migrate(clusterID, target string) (*SessionStatus, error) {
	r, err := c.getRec(clusterID)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	if r.ended {
		c.mu.Unlock()
		return nil, fmt.Errorf("cluster: session %s already ended (%s)", clusterID, r.endState)
	}
	if r.migrating {
		c.mu.Unlock()
		return nil, fmt.Errorf("cluster: session %s is already migrating", clusterID)
	}
	r.migrating = true
	src := c.nodes[r.nodeID]
	c.mu.Unlock()
	defer func() {
		c.mu.Lock()
		r.migrating = false
		c.cond.Broadcast()
		c.mu.Unlock()
	}()
	if src == nil {
		return nil, fmt.Errorf("cluster: session %s owner %s not registered", clusterID, r.nodeID)
	}

	// 1. Export (pauses at the next chunk boundary).
	doc, err := src.client.Export(r.nodeSessionID)
	if err != nil {
		return nil, fmt.Errorf("cluster: export %s from %s: %w", clusterID, r.nodeID, err)
	}

	// 2. Place and import start-paused.
	exclude := map[string]bool{r.nodeID: true}
	var dst *node
	var reason string
	if target != "" {
		c.mu.Lock()
		dst = c.nodes[target]
		c.mu.Unlock()
		if dst == nil {
			resumeErr := resumeBestEffort(src.client, r.nodeSessionID)
			return nil, fmt.Errorf("cluster: unknown target node %q%s", target, resumeErr)
		}
		reason = "requested"
	} else {
		dst, reason, err = c.place(exportCost(doc), doc.ModelHash, exclude)
		if err != nil {
			resumeErr := resumeBestEffort(src.client, r.nodeSessionID)
			return nil, fmt.Errorf("%w%s", err, resumeErr)
		}
	}
	info, err := c.importOn(dst, r, doc, src.httpAddr,
		fmt.Sprintf("migrated:%s:%s->%s", reason, r.nodeID, dst.id))
	if err != nil {
		resumeErr := resumeBestEffort(src.client, r.nodeSessionID)
		return nil, fmt.Errorf("cluster: import %s on %s: %w%s", clusterID, dst.id, err, resumeErr)
	}

	// 3. Hand ownership over, delete the source remnant, and wait for
	// the proxy to follow. The remnant is paused at the boundary with
	// every emitted record already in its subscriber queues; deleting it
	// drains those queues to the proxy and closes its egress stream with
	// a clean EOF — which is exactly what lets the proxy finish reading
	// the old owner promptly and re-dial the new one.
	oldSessionID := r.nodeSessionID
	srcID := r.nodeID
	c.adoptOwner(r, dst, info, doc.Tick, len(doc.PendingSpikes))
	if err := src.client.Delete(oldSessionID); err != nil {
		c.logf("migrate %s: source cleanup on %s failed: %v", clusterID, srcID, err)
	}
	c.awaitInjectSync(r, 10*time.Second)
	c.waitProxyAttach(r, 10*time.Second)

	// 4. Resume on the destination.
	if !r.userPaused {
		if _, err := dst.client.Lifecycle(info.ID, "resume"); err != nil {
			return nil, fmt.Errorf("cluster: resume %s on %s: %w", clusterID, dst.id, err)
		}
	}
	c.mu.Lock()
	r.migrations++
	c.mu.Unlock()
	c.logf("session %s migrated to %s at boundary tick %d", clusterID, dst.id, doc.Tick)
	st := c.status(r)
	return &st, nil
}

// awaitInjectSync blocks until the inject forwarder has delivered every
// journal entry present at call time to the current owner, and the
// owner has consumed them all (its injected-spike counter covers the
// import's pending list plus everything forwarded this generation).
// Running a session past this barrier — after a migration resume or a
// user resume — before it holds would let it pass a journaled spike's
// stamped tick and deliver the spike late, at the wrong tick, breaking
// bit-identity with an unmigrated run.
func (c *Coordinator) awaitInjectSync(r *rec, timeout time.Duration) {
	deadline := time.Now().Add(timeout)
	c.mu.Lock()
	if !r.fwdStarted && len(r.journal) == 0 {
		// Nothing was ever proxied in; the import's own synchronous
		// injection already covers the pending list.
		c.mu.Unlock()
		return
	}
	target := r.jBase + len(r.journal)
	gen := r.gen
	for r.fwdAbs < target && r.gen == gen && !r.ended {
		if time.Now().After(deadline) {
			c.mu.Unlock()
			c.logf("session %s: inject forward not confirmed before deadline", r.clusterID)
			return
		}
		waitCondDeadline(c.cond, deadline)
	}
	want := uint64(r.genPending) + r.fwdSent
	var nc *server.Client
	var sid, owner string
	if n := c.nodes[r.nodeID]; n != nil && !n.dead {
		nc, sid, owner = n.client, r.nodeSessionID, n.id
	}
	c.mu.Unlock()
	if nc == nil {
		return
	}
	for time.Now().Before(deadline) {
		info, err := nc.Info(sid)
		if err == nil && info.Injected >= want {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	c.logf("session %s: inject sync with %s not confirmed before deadline", r.clusterID, owner)
}

// resumeBestEffort un-parks a session after a failed migration so the
// export's pause doesn't strand it; its error (if any) is folded into
// the returned suffix for the caller's message.
func resumeBestEffort(nc *server.Client, id string) string {
	if _, err := nc.Lifecycle(id, "resume"); err != nil {
		return fmt.Sprintf(" (and resume after abort failed: %v)", err)
	}
	return ""
}

// importOn ships an export document to a node, always start-paused:
// journaled injects the document missed arrive via the forwarder before
// the resume (adoptOwner re-cursors it; awaitInjectSync gates).
func (c *Coordinator) importOn(dst *node, r *rec, doc *server.ExportDoc, peerHTTP, placement string) (*server.Info, error) {
	req := &server.ImportRequest{
		Export:       *doc,
		PeerHTTPAddr: peerHTTP,
		Source:       &r.req.Source,
		Name:         r.req.Name,
		Placement:    placement,
		StartPaused:  true,
	}
	return dst.client.Import(req)
}

// adoptOwner atomically rebinds a record to its new owner; basePending
// is the pending-spike count the owner's import injected (the inject
// barrier's baseline for this generation).
func (c *Coordinator) adoptOwner(r *rec, dst *node, info *server.Info, boundaryTick uint64, basePending int) {
	c.mu.Lock()
	r.nodeID = dst.id
	r.nodeSessionID = info.ID
	r.gen++
	r.placedAt = time.Now()
	r.misses = 0
	if r.modelHash == "" {
		r.modelHash = info.ModelHash
	}
	if boundaryTick > r.committedTick {
		r.committedTick = boundaryTick
	}
	// Re-cursor the inject forwarder: every journal entry at or past the
	// boundary must reach the new owner (whatever the old one consumed
	// is superseded by the boundary checkpoint), and the migration
	// barrier counts this generation's deliveries from zero.
	idx := len(r.journal)
	for i, ev := range r.journal {
		if ev.Tick >= boundaryTick {
			idx = i
			break
		}
	}
	r.fwdAbs = r.jBase + idx
	r.fwdSent = 0
	r.genPending = basePending
	dst.resident[info.ModelHash] = true
	c.cond.Broadcast()
	c.mu.Unlock()
}

// waitProxyAttach blocks until the stream proxy (if any client is
// following this session) has attached to the current generation, so
// no egress from the resumed run can slip past an unattached proxy.
func (c *Coordinator) waitProxyAttach(r *rec, timeout time.Duration) {
	deadline := time.Now().Add(timeout)
	c.mu.Lock()
	defer c.mu.Unlock()
	for r.proxyRefs > 0 && r.attachedGen < r.gen {
		if time.Now().After(deadline) {
			c.logf("session %s: proxy did not re-attach within %v; resuming anyway", r.clusterID, timeout)
			return
		}
		waitCondDeadline(c.cond, deadline)
	}
}

// waitCondDeadline waits on cond with a deadline via a broadcast timer.
func waitCondDeadline(cond *sync.Cond, deadline time.Time) {
	t := time.AfterFunc(time.Until(deadline), cond.Broadcast)
	defer t.Stop()
	cond.Wait()
}

// restore re-hosts a session whose owner died (or whose run was killed
// by an injected crash fault) from its last pushed boundary document.
func (c *Coordinator) restore(r *rec, cause string) {
	c.mu.Lock()
	if r.ended || r.migrating {
		c.mu.Unlock()
		return
	}
	if r.restores >= c.opts.MaxRestores {
		c.mu.Unlock()
		c.endSession(r, "failed", fmt.Sprintf("restore cap (%d) reached: %s", c.opts.MaxRestores, cause))
		return
	}
	r.migrating = true // hold the record against concurrent movers
	r.restores++
	doc := r.lastExport
	deadNode := r.nodeID
	oldSessionID := r.nodeSessionID
	c.mu.Unlock()
	defer func() {
		c.mu.Lock()
		r.migrating = false
		c.cond.Broadcast()
		c.mu.Unlock()
	}()

	if doc == nil {
		// The session never completed a chunk: recreate it from the
		// original request (faults stripped — the crash that killed it
		// must not replay) on a fresh node.
		c.restoreFresh(r, deadNode, cause)
		return
	}
	exclude := map[string]bool{deadNode: true}
	dst, _, err := c.place(exportCost(doc), doc.ModelHash, exclude)
	if err != nil {
		c.logf("restore %s: no node available: %v", r.clusterID, err)
		c.endSession(r, "failed", fmt.Sprintf("restore: %v", err))
		return
	}
	// The model peer: any alive node with the image resident (the dead
	// owner is useless). The source fallback covers the cold case.
	peer := c.peerWithModel(doc.ModelHash, dst.id)
	info, err := c.importOn(dst, r, doc, peer,
		fmt.Sprintf("failover:%s:%s->%s", cause, deadNode, dst.id))
	if err != nil {
		c.logf("restore %s on %s failed: %v", r.clusterID, dst.id, err)
		c.endSession(r, "failed", fmt.Sprintf("restore import: %v", err))
		return
	}
	c.adoptOwner(r, dst, info, doc.Tick, len(doc.PendingSpikes))
	c.awaitInjectSync(r, 10*time.Second)
	c.waitProxyAttach(r, 10*time.Second)
	if !r.userPaused {
		if _, err := dst.client.Lifecycle(info.ID, "resume"); err != nil {
			c.logf("restore %s: resume on %s failed: %v", r.clusterID, dst.id, err)
		}
	}
	// Best-effort cleanup of a crash-faulted remnant (its daemon may
	// still be alive even though the session failed).
	c.mu.Lock()
	dead := c.nodes[deadNode]
	c.mu.Unlock()
	if dead != nil && !dead.dead {
		if err := dead.client.Delete(oldSessionID); err != nil {
			c.logf("restore %s: remnant cleanup on %s failed: %v", r.clusterID, deadNode, err)
		}
	}
	c.logf("session %s restored on %s from boundary tick %d (%s)", r.clusterID, dst.id, doc.Tick, cause)
}

// restoreFresh recreates a never-ran session from its original request
// with fault injection stripped.
func (c *Coordinator) restoreFresh(r *rec, deadNode, cause string) {
	req := r.req
	req.Faults = ""
	req.FaultSeed = 0
	req.StartPaused = true
	req.Placement = fmt.Sprintf("failover:fresh:%s:%s", cause, deadNode)
	dst, _, err := c.place(requestCost(&req), r.modelHash, map[string]bool{deadNode: true})
	if err != nil {
		c.endSession(r, "failed", fmt.Sprintf("restore: %v", err))
		return
	}
	info, err := dst.client.Create(&req)
	if err != nil {
		c.endSession(r, "failed", fmt.Sprintf("restore create: %v", err))
		return
	}
	c.adoptOwner(r, dst, info, 0, 0)
	// A fresh recreate carries no export document, so the journal is the
	// only copy of everything ever injected; the boundary-0 re-cursor
	// makes the forwarder deliver all of it before the resume.
	c.awaitInjectSync(r, 10*time.Second)
	c.waitProxyAttach(r, 10*time.Second)
	if !r.userPaused {
		if _, err := dst.client.Lifecycle(info.ID, "resume"); err != nil {
			c.logf("restore %s: resume on %s failed: %v", r.clusterID, dst.id, err)
		}
	}
	c.logf("session %s recreated on %s from tick 0 (%s)", r.clusterID, dst.id, cause)
}

// peerWithModel finds an alive node (other than skip) holding the
// model resident, for wire pulls ("" when none).
func (c *Coordinator) peerWithModel(hash, skip string) string {
	if hash == "" {
		return ""
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, n := range c.aliveNodesLocked() {
		if n.id != skip && n.resident[hash] {
			return n.httpAddr
		}
	}
	return ""
}
