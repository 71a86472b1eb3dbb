package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httputil"
	"sort"
	"strconv"
	"strings"
	"time"

	"github.com/cognitive-sim/compass/internal/server"
)

// The coordinator serves the daemon's own session routes — same paths,
// bodies, status codes and headers — so a client cannot tell it from
// the daemon it fronts, except that its session IDs stay stable across
// migrations. Create is the coordinator's own (placement); every
// per-session route is one reverse proxy to the session's owner.
// /v1/cluster/ holds only what a daemon has no counterpart for: fleet
// membership, checkpoint pushes, the SessionStatus view and migrate.

// nodeStatusLocked builds a node's status document. Callers hold mu.
func (c *Coordinator) nodeStatusLocked(n *node) NodeStatus {
	lapse := time.Duration(c.opts.LapseFactor) * c.opts.HeartbeatInterval
	sessions := 0
	for _, r := range c.recs {
		if r.nodeID == n.id && !r.ended {
			sessions++
		}
	}
	resident := make([]string, 0, len(n.resident))
	for h := range n.resident {
		resident = append(resident, h)
	}
	sort.Strings(resident)
	return NodeStatus{
		ID:           n.id,
		HTTPAddr:     n.httpAddr,
		StreamAddr:   n.streamAddr,
		Capacity:     n.capacity,
		Used:         n.used,
		MemoryBudget: n.memoryBudget,
		MemUsed:      n.memUsed,
		Running:      n.running,
		Queued:       n.queued,
		Sessions:     sessions,
		Resident:     resident,
		Draining:     n.draining,
		AgeSeconds:   time.Since(n.lastSeen).Seconds(),
		Alive:        !n.dead && time.Since(n.lastSeen) <= lapse,
	}
}

// status returns a session's status with the owner's live document for
// as long as the owner holds the session, ended or not; once it does
// not, an ended session answers from the record.
func (c *Coordinator) status(r *rec) SessionStatus {
	c.mu.Lock()
	st := r.statusLocked()
	n, sid := c.nodes[r.nodeID], r.nodeSessionID
	if r.ended {
		st.Info = &server.Info{
			ID: r.clusterID, Name: r.req.Name, State: r.endState, Error: r.endErr,
			Node: r.nodeID, ModelHash: r.modelHash, Scenario: r.req.Scenario,
		}
	}
	c.mu.Unlock()
	if n != nil {
		if info, err := n.client.Info(sid); err == nil {
			info.ID = r.clusterID
			st.Info = info
		}
	}
	return st
}

// relay is what the session proxy carries through one request: the
// record, the owner it goes to, and the route ("" for the session
// itself, else "/pause", "/step", …).
type relay struct {
	r         *rec
	addr, sid string
	route     string
}

type relayKey struct{}

// sessionProxy serves the daemon's per-session routes by relaying each
// request to the session's owner under its node-local ID and passing
// the answer through — status, headers and body — with the session
// document's id set back to the cluster ID. What the coordinator adds
// is three hooks: the inject barrier before resume and step, the
// user-paused flag after pause and resume, and dropping the record
// after delete.
func (c *Coordinator) sessionProxy() http.Handler {
	rp := &httputil.ReverseProxy{
		Transport: c.ownerTransport,
		Rewrite: func(pr *httputil.ProxyRequest) {
			rl := pr.In.Context().Value(relayKey{}).(*relay)
			pr.Out.URL.Scheme, pr.Out.URL.Host, pr.Out.Host = "http", rl.addr, ""
			pr.Out.URL.Path, pr.Out.URL.RawPath = "/v1/sessions/"+rl.sid+rl.route, ""
		},
		ModifyResponse: func(resp *http.Response) error {
			rl := resp.Request.Context().Value(relayKey{}).(*relay)
			ok := resp.StatusCode >= 200 && resp.StatusCode <= 299
			if resp.Request.Method == http.MethodDelete {
				if ok || resp.StatusCode == http.StatusNotFound {
					c.forget(rl.r)
				}
				return nil
			}
			if !ok || rl.route == "/checkpoint" {
				return nil
			}
			var info server.Info
			err := json.NewDecoder(resp.Body).Decode(&info)
			resp.Body.Close()
			if err != nil {
				return fmt.Errorf("session document: %w", err)
			}
			info.ID = rl.r.clusterID
			raw, err := json.MarshalIndent(&info, "", "  ")
			if err != nil {
				return err
			}
			raw = append(raw, '\n')
			resp.Body = io.NopCloser(bytes.NewReader(raw))
			resp.ContentLength = int64(len(raw))
			resp.Header.Set("Content-Length", strconv.Itoa(len(raw)))
			if rl.route == "/pause" || rl.route == "/resume" {
				c.mu.Lock()
				rl.r.userPaused = rl.route == "/pause"
				c.mu.Unlock()
			}
			return nil
		},
		ErrorHandler: func(w http.ResponseWriter, r *http.Request, err error) {
			rl := r.Context().Value(relayKey{}).(*relay)
			server.WriteError(w, http.StatusBadGateway,
				fmt.Errorf("cluster: session %s owner at %s: %w", rl.r.clusterID, rl.addr, err))
		},
	}
	return c.withRec(func(w http.ResponseWriter, r *http.Request, rc *rec) {
		route := strings.TrimPrefix(r.URL.Path, "/v1/sessions/"+rc.clusterID)
		switch route {
		case "", "/pause", "/stop", "/scenario-report", "/checkpoint":
		case "/resume", "/step":
			// Spikes injected through the stream proxy before this request
			// must reach the owner before any tick it releases can fire,
			// exactly as on a directly-driven daemon; running under an
			// un-drained journal would deliver them late.
			c.awaitInjectSync(rc, 5*time.Second)
		default:
			// Export in particular: parking a session for a move is the
			// coordinator's own business (migrate).
			server.WriteError(w, http.StatusNotFound, fmt.Errorf("cluster: no session route %q", route))
			return
		}
		n, sid := c.owner(rc)
		if n == nil {
			if r.Method == http.MethodDelete {
				c.forget(rc)
				w.WriteHeader(http.StatusNoContent)
				return
			}
			server.WriteError(w, http.StatusServiceUnavailable,
				fmt.Errorf("cluster: session %s has no registered owner", rc.clusterID))
			return
		}
		rl := &relay{r: rc, addr: n.httpAddr, sid: sid, route: route}
		rp.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), relayKey{}, rl)))
	})
}

// withRec resolves the path's cluster session ID, answering 404 itself
// for an unknown one.
func (c *Coordinator) withRec(fn func(http.ResponseWriter, *http.Request, *rec)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		rc, err := c.getRec(r.PathValue("id"))
		if err != nil {
			server.WriteError(w, http.StatusNotFound, err)
			return
		}
		fn(w, r, rc)
	}
}

// forget ends a deleted session and drops its record.
func (c *Coordinator) forget(r *rec) {
	c.endSession(r, "cancelled", "deleted")
	c.mu.Lock()
	delete(c.recs, r.clusterID)
	c.mu.Unlock()
}

// decodeBody reads a JSON request body into v, answering 400 itself
// when it cannot.
func decodeBody(w http.ResponseWriter, r *http.Request, what string, v any) bool {
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		server.WriteError(w, http.StatusBadRequest, fmt.Errorf("cluster: decode %s: %w", what, err))
		return false
	}
	return true
}

// handler builds the coordinator control-plane mux.
func (c *Coordinator) handler() http.Handler {
	mux := http.NewServeMux()

	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		c.mu.Lock()
		alive := len(c.aliveNodesLocked())
		nodes := len(c.nodes)
		active := 0
		for _, rc := range c.recs {
			if !rc.ended {
				active++
			}
		}
		total := len(c.recs)
		c.mu.Unlock()
		server.WriteJSON(w, http.StatusOK, map[string]any{
			"status":         "ok",
			"role":           "coordinator",
			"uptime_seconds": int64(time.Since(c.started).Seconds()),
			"stream_addr":    c.StreamAddr(),
			"nodes":          map[string]int{"alive": alive, "total": nodes},
			"sessions":       map[string]int{"active": active, "total": total},
		})
	})

	// The daemon's session surface.
	mux.HandleFunc("POST /v1/sessions", func(w http.ResponseWriter, r *http.Request) {
		var req server.CreateRequest
		if !decodeBody(w, r, "request", &req) {
			return
		}
		info, err := c.CreateSession(&req)
		if err != nil {
			// The owner's refusal keeps its status (400, 429); a fleet
			// with no room is over capacity like a full daemon.
			code := http.StatusBadRequest
			var refused *server.StatusError
			if errors.Is(err, ErrNoEligibleNode) {
				code = http.StatusTooManyRequests
			} else if errors.As(err, &refused) {
				code = refused.Code
			}
			server.WriteError(w, code, err)
			return
		}
		server.WriteJSON(w, http.StatusCreated, info)
	})
	proxy := c.sessionProxy()
	mux.Handle("GET /v1/sessions/{id}", proxy)
	mux.Handle("DELETE /v1/sessions/{id}", proxy)
	mux.Handle("GET /v1/sessions/{id}/checkpoint", proxy)
	mux.Handle("POST /v1/sessions/{id}/{verb}", proxy)

	// Fleet membership.
	mux.HandleFunc("POST /v1/cluster/nodes/register", func(w http.ResponseWriter, r *http.Request) {
		var req RegisterRequest
		if !decodeBody(w, r, "register", &req) {
			return
		}
		if err := c.register(&req); err != nil {
			server.WriteError(w, http.StatusBadRequest, err)
			return
		}
		server.WriteJSON(w, http.StatusOK, RegisterResponse{
			HeartbeatMillis: c.opts.HeartbeatInterval.Milliseconds(),
		})
	})

	mux.HandleFunc("POST /v1/cluster/nodes/heartbeat", func(w http.ResponseWriter, r *http.Request) {
		var hb Heartbeat
		if !decodeBody(w, r, "heartbeat", &hb) {
			return
		}
		if err := c.heartbeat(&hb); err != nil {
			// Unknown node: tell it to re-register (coordinator restart).
			server.WriteError(w, http.StatusConflict, err)
			return
		}
		server.WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})

	mux.HandleFunc("POST /v1/cluster/checkpoint", func(w http.ResponseWriter, r *http.Request) {
		var p CheckpointPush
		if !decodeBody(w, r, "checkpoint push", &p) {
			return
		}
		c.checkpointPush(&p)
		server.WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})

	mux.HandleFunc("GET /v1/cluster/nodes", func(w http.ResponseWriter, r *http.Request) {
		c.mu.Lock()
		ids := make([]string, 0, len(c.nodes))
		for id := range c.nodes {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		out := make([]NodeStatus, 0, len(ids))
		for _, id := range ids {
			out = append(out, c.nodeStatusLocked(c.nodes[id]))
		}
		c.mu.Unlock()
		server.WriteJSON(w, http.StatusOK, map[string]any{"nodes": out})
	})

	mux.HandleFunc("POST /v1/cluster/nodes/{id}/drain", func(w http.ResponseWriter, r *http.Request) {
		moved, stuck, err := c.DrainNode(r.PathValue("id"))
		if err != nil {
			server.WriteError(w, http.StatusNotFound, err)
			return
		}
		server.WriteJSON(w, http.StatusOK, map[string]any{"moved": moved, "stuck": stuck})
	})

	mux.HandleFunc("DELETE /v1/cluster/nodes/{id}", func(w http.ResponseWriter, r *http.Request) {
		c.Deregister(r.PathValue("id"))
		w.WriteHeader(http.StatusNoContent)
	})

	// The coordinator's own view of sessions: owner, generation,
	// committed tick.
	mux.HandleFunc("GET /v1/cluster/sessions", func(w http.ResponseWriter, r *http.Request) {
		c.mu.Lock()
		ids := make([]string, 0, len(c.recs))
		for id := range c.recs {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		out := make([]SessionStatus, 0, len(ids))
		for _, id := range ids {
			out = append(out, c.recs[id].statusLocked())
		}
		c.mu.Unlock()
		server.WriteJSON(w, http.StatusOK, map[string]any{"sessions": out})
	})

	mux.HandleFunc("GET /v1/cluster/sessions/{id}", c.withRec(func(w http.ResponseWriter, r *http.Request, rc *rec) {
		server.WriteJSON(w, http.StatusOK, c.status(rc))
	}))

	mux.HandleFunc("POST /v1/cluster/sessions/{id}/migrate", c.withRec(func(w http.ResponseWriter, r *http.Request, rc *rec) {
		var req MigrateRequest
		if r.ContentLength != 0 && !decodeBody(w, r, "migrate", &req) {
			return
		}
		st, err := c.Migrate(rc.clusterID, req.Target)
		if err != nil {
			server.WriteError(w, http.StatusConflict, err)
			return
		}
		server.WriteJSON(w, http.StatusOK, st)
	}))

	return mux
}
