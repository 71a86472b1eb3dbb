package server

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"github.com/cognitive-sim/compass/internal/cocomac"
	sim "github.com/cognitive-sim/compass/internal/compass"
	"github.com/cognitive-sim/compass/internal/coreobject"
	"github.com/cognitive-sim/compass/internal/faults"
	"github.com/cognitive-sim/compass/internal/modelcache"
	"github.com/cognitive-sim/compass/internal/pcc"
	"github.com/cognitive-sim/compass/internal/telemetry"
	"github.com/cognitive-sim/compass/internal/truenorth"
)

// CreateRequest is the POST /v1/sessions body.
type CreateRequest struct {
	Name   string     `json:"name,omitempty"`
	Source SourceSpec `json:"source"`
	// Ranks, Threads, Transport pick the decomposition; Transport
	// defaults to "shmem", Ranks and Threads to 1.
	Ranks     int    `json:"ranks,omitempty"`
	Threads   int    `json:"threads,omitempty"`
	Transport string `json:"transport,omitempty"`
	// Ticks is the number of ticks to simulate.
	Ticks uint64 `json:"ticks"`
	// ChunkTicks overrides the server's pause/checkpoint granularity.
	ChunkTicks int `json:"chunk_ticks,omitempty"`
	// CheckpointBase64 optionally resumes from a binary checkpoint (the
	// format WriteCheckpoint produces, e.g. a drained session's file).
	CheckpointBase64 string `json:"checkpoint_base64,omitempty"`
	// StartPaused creates the session parked before its first tick so
	// stream clients can attach before any spike fires; release it with
	// POST /v1/sessions/{id}/resume.
	StartPaused bool `json:"start_paused,omitempty"`
	// Faults optionally arms deterministic fault injection for the
	// session (the cmd/compass -faults grammar, e.g.
	// "crash:rank=1:tick=50"); FaultSeed seeds its probabilistic rules.
	// Chaos drills use this to kill a daemon mid-run and assert cluster
	// failover restores the session bit-identically elsewhere.
	Faults    string `json:"faults,omitempty"`
	FaultSeed uint64 `json:"fault_seed,omitempty"`
	// Placement records how the session landed on this daemon; direct
	// creates leave it empty ("local"), coordinators stamp their
	// decision string.
	Placement string `json:"placement,omitempty"`
	// Scenario labels the closed-loop workload that will drive the
	// session (a scenario registry name); reported in Info and used to
	// key per-scenario telemetry.
	Scenario string `json:"scenario,omitempty"`
}

// StepRequest is the POST /v1/sessions/{id}/step body: grant the
// session a budget of exactly Ticks further ticks, then park. The
// response is the session's Info after the budget resolves.
type StepRequest struct {
	Ticks uint64 `json:"ticks"`
	// MinInjected, when set, is the step's inject barrier: the daemon
	// holds the grant until the session has ingested at least this many
	// streamed spikes, so stimuli sent (on the separate stream
	// connection) before the step was asked are guaranteed to land in
	// the granted ticks. Lock-step clients pass their cumulative sent
	// record count.
	MinInjected uint64 `json:"min_injected,omitempty"`
}

// ScenarioReportRequest is the POST /v1/sessions/{id}/scenario-report
// body: a closed-loop client folding episode progress into the daemon's
// per-scenario telemetry. Scenario defaults to the session's label.
type ScenarioReportRequest struct {
	Scenario string  `json:"scenario,omitempty"`
	Episodes uint64  `json:"episodes"`
	Steps    uint64  `json:"steps"`
	Reward   float64 `json:"reward"`
}

// SourceSpec selects where the session's model comes from.
type SourceSpec struct {
	// Kind is "cocomac" (built-in macaque network), "spec" (inline
	// CoreObject JSON, compiled by the PCC), or "model" (binary model,
	// base64).
	Kind string `json:"kind"`
	// Seed and Cores shape the generated CoCoMac network; InputTicks is
	// the duration of its generated thalamic stimulus.
	Seed       uint64 `json:"seed,omitempty"`
	Cores      int    `json:"cores,omitempty"`
	InputTicks uint64 `json:"input_ticks,omitempty"`
	// Spec is the inline CoreObject network description.
	Spec json.RawMessage `json:"spec,omitempty"`
	// ModelBase64 is a binary model (the format WriteModel produces).
	ModelBase64 string `json:"model_base64,omitempty"`
}

// buildImage materializes the request's model image through the
// manager's content-addressed cache: two requests that would compile
// identically (same spec document and ranks, or same model bytes) share
// one immutable image, and concurrent identical requests deduplicate to
// a single compilation.
func (srv *Server) buildImage(src SourceSpec, ranks int) (*modelcache.Entry, error) {
	cache := srv.mgr.ModelCache()
	compile := func(spec *coreobject.NetworkSpec) (*modelcache.Entry, error) {
		key, err := modelcache.SpecKey(spec, ranks)
		if err != nil {
			return nil, err
		}
		e, _, err := cache.GetOrBuild(key, func() (*modelcache.Entry, error) {
			res, err := pcc.CompileLimited(spec, ranks, srv.mgr.Limiter())
			if err != nil {
				return nil, fmt.Errorf("server: compile: %w", err)
			}
			return &modelcache.Entry{Image: res.Image, RankOf: res.RankOf, Ranks: res.Ranks}, nil
		})
		return e, err
	}
	switch src.Kind {
	case "cocomac":
		cores := src.Cores
		if cores <= 0 {
			cores = 128
		}
		inputTicks := src.InputTicks
		if inputTicks == 0 {
			inputTicks = 1_000_000 // effectively unbounded stimulus
		}
		net := cocomac.Generate(src.Seed)
		spec, err := net.ToSpec(cores, inputTicks)
		if err != nil {
			return nil, fmt.Errorf("server: cocomac: %w", err)
		}
		return compile(spec)
	case "spec":
		if len(src.Spec) == 0 {
			return nil, errors.New("server: source kind \"spec\" needs a spec document")
		}
		spec, err := coreobject.DecodeSpec(bytes.NewReader(src.Spec))
		if err != nil {
			return nil, fmt.Errorf("server: spec: %w", err)
		}
		return compile(spec)
	case "model":
		raw, err := base64.StdEncoding.DecodeString(src.ModelBase64)
		if err != nil {
			return nil, fmt.Errorf("server: model_base64: %w", err)
		}
		// Binary models carry no placement and their key is independent
		// of the requested ranks, so Ranks stays 0 ("no compiler info").
		e, _, err := cache.GetOrBuild(modelcache.ModelKey(raw), func() (*modelcache.Entry, error) {
			m, err := coreobject.ReadModel(bytes.NewReader(raw))
			if err != nil {
				return nil, fmt.Errorf("server: model: %w", err)
			}
			img, err := truenorth.NewImageLimited(m, srv.mgr.Limiter())
			if err != nil {
				return nil, fmt.Errorf("server: model: %w", err)
			}
			return &modelcache.Entry{Image: img}, nil
		})
		return e, err
	default:
		return nil, fmt.Errorf("server: unknown source kind %q (want cocomac, spec, or model)", src.Kind)
	}
}

// sessionFromRequest validates a create request into manager params.
func (srv *Server) sessionFromRequest(req *CreateRequest) (CreateParams, error) {
	if req.Ticks == 0 {
		return CreateParams{}, errors.New("server: ticks must be positive")
	}
	ranks := req.Ranks
	if ranks <= 0 {
		ranks = 1
	}
	threads := req.Threads
	if threads <= 0 {
		threads = 1
	}
	transport := sim.TransportShmem
	if req.Transport != "" {
		var err error
		transport, err = sim.ParseTransport(req.Transport)
		if err != nil {
			return CreateParams{}, err
		}
	}
	e, err := srv.buildImage(req.Source, ranks)
	if err != nil {
		return CreateParams{}, err
	}
	rankOf := e.RankOf
	if e.Ranks > 0 && e.Ranks < ranks {
		ranks = e.Ranks // the compiler dropped coreless trailing ranks
	} else if ranks > e.Image.NumCores() {
		ranks = e.Image.NumCores()
		rankOf = nil
	}
	p := CreateParams{
		Name:     req.Name,
		Image:    e.Image,
		CacheKey: e.Key,
		Cfg: sim.Config{
			Ranks:          ranks,
			ThreadsPerRank: threads,
			Transport:      transport,
			RankOf:         rankOf,
		},
		Ticks:       req.Ticks,
		ChunkTicks:  req.ChunkTicks,
		StartPaused: req.StartPaused,
		Placement:   req.Placement,
		Scenario:    req.Scenario,
	}
	if req.Faults != "" {
		inj, err := faults.Parse(req.Faults, req.FaultSeed)
		if err != nil {
			return CreateParams{}, fmt.Errorf("server: faults: %w", err)
		}
		p.Cfg.Faults = inj
	}
	if req.CheckpointBase64 != "" {
		raw, err := base64.StdEncoding.DecodeString(req.CheckpointBase64)
		if err != nil {
			return CreateParams{}, fmt.Errorf("server: checkpoint_base64: %w", err)
		}
		cp, err := coreobject.ReadCheckpoint(bytes.NewReader(raw))
		if err != nil {
			return CreateParams{}, fmt.Errorf("server: checkpoint: %w", err)
		}
		p.StartFrom = cp
	}
	return p, nil
}

// WriteError writes the control plane's JSON error envelope,
// {"error": …}; the coordinator answers with the same one.
func WriteError(w http.ResponseWriter, code int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}

// WriteJSON writes v as an indented JSON document.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// stepInjectTimeout is how long a step's inject barrier may hold the
// request before it answers 504. A variable only so that tests of the
// timeout need not wait it out.
var stepInjectTimeout = 30 * time.Second

// handler builds the control-plane mux.
func (srv *Server) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		running, queued, total := srv.mgr.Counts()
		WriteJSON(w, http.StatusOK, map[string]any{
			"status":           "ok",
			"uptime_seconds":   int64(time.Since(srv.started).Seconds()),
			"stream_addr":      srv.StreamAddr(),
			"node":             srv.NodeID(),
			"advertise_http":   srv.AdvertiseHTTPAddr(),
			"advertise_stream": srv.AdvertiseStreamAddr(),
			"capacity": map[string]any{
				"used_seconds_per_tick":  srv.mgr.UsedCapacity(),
				"total_seconds_per_tick": srv.mgr.Capacity(),
				"memory_used_bytes":      srv.mgr.MemoryUsed(),
				"memory_budget_bytes":    srv.mgr.MemoryBudget(),
			},
			"resident_models": srv.mgr.ResidentImageHashes(),
			"sessions":        map[string]int{"running": running, "queued": queued, "total": total},
		})
	})
	mux.Handle("GET /metrics", MetricsHandler(srv.mgr.MetricsSnapshot))

	mux.HandleFunc("POST /v1/sessions", func(w http.ResponseWriter, r *http.Request) {
		var req CreateRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			WriteError(w, http.StatusBadRequest, fmt.Errorf("server: decode request: %w", err))
			return
		}
		p, err := srv.sessionFromRequest(&req)
		if err != nil {
			WriteError(w, http.StatusBadRequest, err)
			return
		}
		s, err := srv.mgr.Create(p)
		if err != nil {
			code := http.StatusBadRequest
			if errors.Is(err, ErrOverCapacity) {
				code = http.StatusTooManyRequests
			}
			WriteError(w, code, err)
			return
		}
		WriteJSON(w, http.StatusCreated, s.Info())
	})

	mux.HandleFunc("GET /v1/sessions", func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, http.StatusOK, map[string]any{"sessions": srv.mgr.List()})
	})

	withSession := func(fn func(http.ResponseWriter, *http.Request, *Session)) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			s, err := srv.mgr.Get(r.PathValue("id"))
			if err != nil {
				WriteError(w, http.StatusNotFound, err)
				return
			}
			fn(w, r, s)
		}
	}

	mux.HandleFunc("GET /v1/sessions/{id}", withSession(func(w http.ResponseWriter, r *http.Request, s *Session) {
		WriteJSON(w, http.StatusOK, s.Info())
	}))
	mux.HandleFunc("POST /v1/sessions/{id}/pause", withSession(func(w http.ResponseWriter, r *http.Request, s *Session) {
		if err := s.Pause(); err != nil {
			WriteError(w, http.StatusConflict, err)
			return
		}
		// Pause resolves at the next chunk boundary; wait briefly so the
		// common case returns the settled state.
		s.WaitState(5*time.Second, func(st State) bool { return st != StateRunning })
		WriteJSON(w, http.StatusOK, s.Info())
	}))
	mux.HandleFunc("POST /v1/sessions/{id}/resume", withSession(func(w http.ResponseWriter, r *http.Request, s *Session) {
		if err := s.Resume(); err != nil {
			WriteError(w, http.StatusConflict, err)
			return
		}
		WriteJSON(w, http.StatusOK, s.Info())
	}))
	mux.HandleFunc("POST /v1/sessions/{id}/step", withSession(func(w http.ResponseWriter, r *http.Request, s *Session) {
		var req StepRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			WriteError(w, http.StatusBadRequest, fmt.Errorf("server: decode step: %w", err))
			return
		}
		if req.MinInjected > 0 {
			if err := s.WaitInjected(req.MinInjected, stepInjectTimeout); err != nil {
				WriteError(w, http.StatusGatewayTimeout, err)
				return
			}
		}
		if err := s.StepTicks(req.Ticks); err != nil {
			WriteError(w, http.StatusConflict, err)
			return
		}
		// The budget resolves at a chunk boundary (paused) or run end
		// (terminal); wait so the caller observes the settled state and
		// can read the window's egress knowing the ticks have simulated.
		s.WaitState(60*time.Second, func(st State) bool {
			return st == StatePaused || st.Terminal()
		})
		WriteJSON(w, http.StatusOK, s.Info())
	}))
	mux.HandleFunc("POST /v1/sessions/{id}/scenario-report", withSession(func(w http.ResponseWriter, r *http.Request, s *Session) {
		var req ScenarioReportRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			WriteError(w, http.StatusBadRequest, fmt.Errorf("server: decode scenario report: %w", err))
			return
		}
		name := req.Scenario
		if name == "" {
			name = s.Scenario()
		}
		if name == "" {
			WriteError(w, http.StatusBadRequest, errors.New("server: session has no scenario label and none was given"))
			return
		}
		srv.mgr.ScenarioReport(name, req.Episodes, req.Steps, req.Reward)
		WriteJSON(w, http.StatusOK, s.Info())
	}))
	mux.HandleFunc("POST /v1/sessions/{id}/stop", withSession(func(w http.ResponseWriter, r *http.Request, s *Session) {
		if err := srv.mgr.Stop(s.ID); err != nil {
			WriteError(w, http.StatusConflict, err)
			return
		}
		s.WaitState(5*time.Second, func(st State) bool { return st.Terminal() })
		WriteJSON(w, http.StatusOK, s.Info())
	}))
	mux.HandleFunc("GET /v1/sessions/{id}/checkpoint", withSession(func(w http.ResponseWriter, r *http.Request, s *Session) {
		cp := s.ExportCheckpoint()
		var buf bytes.Buffer
		if err := coreobject.WriteCheckpoint(&buf, cp); err != nil {
			WriteError(w, http.StatusInternalServerError, err)
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Header().Set("X-Compass-Checkpoint-Tick", fmt.Sprint(cp.Tick))
		w.Write(buf.Bytes())
	}))
	mux.HandleFunc("DELETE /v1/sessions/{id}", withSession(func(w http.ResponseWriter, r *http.Request, s *Session) {
		if err := srv.mgr.Remove(s.ID); err != nil {
			WriteError(w, http.StatusConflict, err)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	}))

	// Migration surface: export a parked session, import one exported
	// elsewhere, and serve models by content hash so importing nodes
	// pull only what they don't hold. See DESIGN.md §5h.
	mux.HandleFunc("POST /v1/sessions/{id}/export", withSession(func(w http.ResponseWriter, r *http.Request, s *Session) {
		if err := parkForExport(s, 30*time.Second); err != nil {
			WriteError(w, http.StatusConflict, err)
			return
		}
		doc, err := buildExportDoc(s)
		if err != nil {
			WriteError(w, http.StatusInternalServerError, err)
			return
		}
		WriteJSON(w, http.StatusOK, doc)
	}))
	mux.HandleFunc("POST /v1/sessions/import", func(w http.ResponseWriter, r *http.Request) {
		var req ImportRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			WriteError(w, http.StatusBadRequest, fmt.Errorf("server: decode import: %w", err))
			return
		}
		s, err := srv.importSession(&req)
		if err != nil {
			code := http.StatusBadRequest
			if errors.Is(err, ErrOverCapacity) {
				code = http.StatusTooManyRequests
			}
			WriteError(w, code, err)
			return
		}
		WriteJSON(w, http.StatusCreated, s.Info())
	})
	mux.HandleFunc("GET /v1/models/{hash}", func(w http.ResponseWriter, r *http.Request) {
		hash := r.PathValue("hash")
		img, _, ok := srv.mgr.FindImageByHash(hash)
		if !ok {
			WriteError(w, http.StatusNotFound, fmt.Errorf("server: model %.12s… not resident", hash))
			return
		}
		var buf bytes.Buffer
		if err := coreobject.WriteModel(&buf, img.Model()); err != nil {
			WriteError(w, http.StatusInternalServerError, err)
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Header().Set("X-Compass-Model-Hash", hash)
		w.Write(buf.Bytes())
	})
	return mux
}

// MetricsHandler serves GET /metrics as Prometheus text exposition from
// the given snapshot source. It is shared between compassd and
// cmd/compass's -metrics-listen flag.
func MetricsHandler(snap func() *telemetry.Snapshot) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s := snap()
		if s == nil {
			http.Error(w, "no metrics registry attached", http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		s.WritePrometheus(w)
	})
}

// LiveMux builds a minimal /metrics + /healthz mux around a snapshot
// source — the handler cmd/compass mounts for -metrics-listen so a
// one-shot run can be scraped while it executes.
func LiveMux(snap func() *telemetry.Snapshot) *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("GET /metrics", MetricsHandler(snap))
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, http.StatusOK, map[string]any{"status": "ok"})
	})
	return mux
}
