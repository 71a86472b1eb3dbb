package scenario

import (
	"bytes"
	"crypto/sha256"
	"encoding/base64"
	"encoding/hex"
	"fmt"
	"io"
	"net/http"
	"sort"
	"time"

	"github.com/cognitive-sim/compass/internal/coreobject"
	"github.com/cognitive-sim/compass/internal/server"
	"github.com/cognitive-sim/compass/internal/spikeio"
)

// Client drives scenario sessions over a serving surface: a compassd or
// a cluster coordinator, which serves the same session routes — the
// control plane through server.Client, the spike stream at the address
// /healthz advertises.
type Client struct {
	ctl        *server.Client
	streamAddr string
	role       string
}

// Dial probes a compassd or coordinator control plane and returns a
// client bound to it.
func Dial(addr string) (*Client, error) {
	c := &Client{ctl: server.NewClient(addr, 120*time.Second)}
	var h struct {
		Role       string `json:"role"`
		StreamAddr string `json:"stream_addr"`
	}
	if err := c.ctl.Do(http.MethodGet, "/healthz", nil, &h); err != nil {
		return nil, fmt.Errorf("scenario: probe %s: %w", addr, err)
	}
	c.role, c.streamAddr = h.Role, h.StreamAddr
	if c.streamAddr == "" {
		return nil, fmt.Errorf("scenario: %s advertises no stream plane", addr)
	}
	return c, nil
}

// Cluster reports whether /healthz named a coordinator; nothing the
// client does depends on it.
func (c *Client) Cluster() bool { return c.role == "coordinator" }

// StreamAddr returns the bound stream plane address.
func (c *Client) StreamAddr() string { return c.streamAddr }

// Create admits a scenario session and returns its session ID (stable
// across migrations behind a coordinator) and initial info.
func (c *Client) Create(req *server.CreateRequest) (string, *server.Info, error) {
	info, err := c.ctl.Create(req)
	if err != nil {
		return "", nil, err
	}
	return info.ID, info, nil
}

// Step grants the session exactly ticks further ticks and returns after
// they have simulated (the session parks at the boundary). minInjected,
// when nonzero, is the inject barrier: the daemon holds the grant until
// the session has ingested that many streamed spikes, closing the race
// between the stream connection and this control-plane call.
func (c *Client) Step(id string, ticks, minInjected uint64) (*server.Info, error) {
	return c.ctl.Step(id, &server.StepRequest{Ticks: ticks, MinInjected: minInjected})
}

// Info fetches the session's status document.
func (c *Client) Info(id string) (*server.Info, error) { return c.ctl.Info(id) }

// ScenarioReport folds episode progress into the serving daemon's
// per-scenario telemetry.
func (c *Client) ScenarioReport(id string, req *server.ScenarioReportRequest) error {
	_, err := c.ctl.ScenarioReport(id, req)
	return err
}

// Remove stops and deletes the session.
func (c *Client) Remove(id string) error { return c.ctl.Delete(id) }

// DialStream opens the session's spike stream with the given flags.
func (c *Client) DialStream(id string, flags byte) (*server.StreamClient, error) {
	return server.DialStream(c.streamAddr, id, flags)
}

// RunOptions parameterize one scenario run.
type RunOptions struct {
	// Episodes and Steps override the spec defaults when > 0.
	Episodes int
	Steps    int
	// Seed seeds the task, its encoders, and the model build.
	Seed uint64
	// Transport names the session's decomposition transport ("" =
	// server default). Ranks is pinned to 1: the engine's stepping
	// sentinel relies on single-rank egress being tick-ordered.
	Transport string
	// Name labels the session (defaults to "scenario-<name>").
	Name string
	// Report, when set, posts per-episode scenario reports to the
	// serving daemon's telemetry.
	Report bool
	// StepTimeout bounds the wait for one window's egress (default 60s).
	StepTimeout time.Duration
	// KeepSession leaves the session in place after the run (the smoke
	// tool reads its Info afterwards); by default the engine removes it.
	KeepSession bool
}

// Result is one completed scenario run.
type Result struct {
	Scenario string `json:"scenario"`
	Seed     uint64 `json:"seed"`
	Episodes int    `json:"episodes"`
	Steps    int    `json:"steps"`
	Score    Score  `json:"score"`
	// InjectHash is the SHA-256 of the wire-encoded inject stream — the
	// determinism fingerprint (same seed ⇒ same hash, everywhere).
	InjectHash string `json:"inject_hash"`
	// Injected is the full recorded inject stream, in send order.
	Injected []spikeio.Event `json:"-"`
	// StepRTTs are the client-observed inject→decision round trips, one
	// per decision step, in seconds.
	StepRTTs []float64 `json:"-"`
	// Elapsed is the wall-clock for the whole run.
	ElapsedSeconds float64 `json:"elapsed_seconds"`
	// SessionID is the session driven (cluster-stable through a
	// coordinator); Info its final status document when available.
	SessionID string       `json:"session_id"`
	Info      *server.Info `json:"info,omitempty"`
}

// RTTPercentile reads the q-quantile of the step round trips.
func (r *Result) RTTPercentile(q float64) float64 {
	if len(r.StepRTTs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), r.StepRTTs...)
	sort.Float64s(sorted)
	idx := int(q * float64(len(sorted)-1))
	return sorted[idx]
}

// HashEvents fingerprints a spike stream: the SHA-256 of its records in
// CSPK wire encoding, in order.
func HashEvents(events []spikeio.Event) string {
	h := sha256.New()
	var rec [spikeio.RecordSize]byte
	for _, ev := range events {
		spikeio.EncodeRecord(rec[:], ev)
		h.Write(rec[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Run executes a scenario against a live serving surface in lock-step:
// for every decision window it injects the task's stimulus, steps the
// session exactly WindowTicks, drains egress until the window's
// sentinel tick appears, decodes, and feeds the verdict back to the
// task. Determinism: with ranks=1 the egress stream is tick-ordered and
// the frozen-batch inject contract makes streamed spikes land exactly
// at their stamped ticks, so the spike-level trajectory equals a direct
// compass.Run over the same inject stream (Replay pins this).
func Run(c *Client, spec *Spec, opts RunOptions) (*Result, error) {
	task, err := spec.New(opts.Seed)
	if err != nil {
		return nil, err
	}
	w := task.Wiring()
	episodes := opts.Episodes
	if episodes <= 0 {
		episodes = spec.Episodes
	}
	steps := opts.Steps
	if steps <= 0 {
		steps = spec.Steps
	}
	name := opts.Name
	if name == "" {
		name = "scenario-" + spec.Name
	}
	stepTimeout := opts.StepTimeout
	if stepTimeout <= 0 {
		stepTimeout = 60 * time.Second
	}

	var modelBuf bytes.Buffer
	if err := coreobject.WriteModel(&modelBuf, w.Model); err != nil {
		return nil, fmt.Errorf("scenario: encode model: %w", err)
	}
	totalTicks := uint64(episodes) * uint64(steps) * spec.WindowTicks
	id, _, err := c.Create(&server.CreateRequest{
		Name:        name,
		Source:      server.SourceSpec{Kind: "model", ModelBase64: base64.StdEncoding.EncodeToString(modelBuf.Bytes())},
		Ranks:       1,
		Transport:   opts.Transport,
		Ticks:       totalTicks,
		ChunkTicks:  int(spec.WindowTicks),
		StartPaused: true,
		Scenario:    spec.Name,
	})
	if err != nil {
		return nil, err
	}
	res := &Result{Scenario: spec.Name, Seed: opts.Seed, Episodes: episodes, Steps: steps, SessionID: id}
	if !opts.KeepSession {
		defer c.Remove(id)
	}

	stream, err := c.DialStream(id, server.StreamFlagInject|server.StreamFlagSubscribe)
	if err != nil {
		return nil, fmt.Errorf("scenario: dial stream: %w", err)
	}
	defer stream.Close()

	// The reader goroutine drains egress into a channel so the sentinel
	// wait can time out instead of blocking forever on a wedged stream.
	batches := make(chan []spikeio.Event, 64)
	readErr := make(chan error, 1)
	go func() {
		defer close(batches)
		for {
			evs, err := stream.Recv()
			if err != nil {
				if err != io.EOF {
					readErr <- err
				}
				return
			}
			batches <- evs
		}
	}()

	started := time.Now()
	var egress []spikeio.Event
	cursor := uint64(0)
	for ep := 0; ep < episodes; ep++ {
		task.Reset(ep)
		before := task.Score()
		for st := 0; st < steps; st++ {
			start := cursor
			events, err := task.Emit(st, start)
			if err != nil {
				return nil, fmt.Errorf("scenario: %s episode %d step %d: %w", spec.Name, ep, st, err)
			}
			t0 := time.Now()
			if len(events) > 0 {
				if err := stream.Send(events); err != nil {
					return nil, fmt.Errorf("scenario: inject: %w", err)
				}
				res.Injected = append(res.Injected, events...)
			}
			if _, err := c.Step(id, spec.WindowTicks, uint64(len(res.Injected))); err != nil {
				return nil, fmt.Errorf("scenario: step: %w", err)
			}
			// Sentinel: with ranks=1 egress arrives in tick order and the
			// model's pacemaker fires every tick, so the first record at or
			// past the guard boundary proves the decode window is complete.
			sentinel := spec.DecideEnd(start)
			egress, err = drainUntil(batches, readErr, egress, sentinel, stepTimeout)
			if err != nil {
				return nil, fmt.Errorf("scenario: %s episode %d step %d: %w", spec.Name, ep, st, err)
			}
			res.StepRTTs = append(res.StepRTTs, time.Since(t0).Seconds())

			d := decideWindow(w, egress, start, sentinel)
			if d.Action >= 0 {
				d.FirstTick -= start // tasks see window-relative latency
			}
			task.Feedback(st, d)

			// Records below the next window's start are decided history.
			egress = trimBelow(egress, start+spec.WindowTicks)
			cursor += spec.WindowTicks
		}
		if opts.Report {
			after := task.Score()
			_ = c.ScenarioReport(id, &server.ScenarioReportRequest{
				Scenario: spec.Name,
				Episodes: 1,
				Steps:    uint64(steps),
				Reward:   after.Reward - before.Reward,
			})
		}
	}
	res.Score = task.Score()
	res.InjectHash = HashEvents(res.Injected)
	res.ElapsedSeconds = time.Since(started).Seconds()
	if info, err := c.Info(id); err == nil {
		res.Info = info
	}
	return res, nil
}

// drainUntil appends egress batches until a record with Tick >=
// sentinel arrives (tick order makes every earlier tick complete).
func drainUntil(batches <-chan []spikeio.Event, readErr <-chan error, buf []spikeio.Event, sentinel uint64, timeout time.Duration) ([]spikeio.Event, error) {
	for _, ev := range buf {
		if ev.Tick >= sentinel {
			return buf, nil
		}
	}
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	for {
		select {
		case evs, ok := <-batches:
			if !ok {
				select {
				case err := <-readErr:
					return buf, fmt.Errorf("egress stream failed: %w", err)
				default:
					return buf, fmt.Errorf("egress stream closed before tick %d arrived", sentinel)
				}
			}
			buf = append(buf, evs...)
			for _, ev := range evs {
				if ev.Tick >= sentinel {
					return buf, nil
				}
			}
		case <-deadline.C:
			return buf, fmt.Errorf("timed out after %v waiting for egress tick %d", timeout, sentinel)
		}
	}
}

// trimBelow drops records with Tick < floor, preserving order.
func trimBelow(events []spikeio.Event, floor uint64) []spikeio.Event {
	out := events[:0]
	for _, ev := range events {
		if ev.Tick >= floor {
			out = append(out, ev)
		}
	}
	return out
}
