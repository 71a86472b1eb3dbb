package cluster

import (
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"github.com/cognitive-sim/compass/internal/server"
)

// Agent is the node-side half of the cluster: it registers its compassd
// with a coordinator, heartbeats load and per-session pulses, and
// pushes a full export document at every chunk boundary so the
// coordinator can restore any session from its latest boundary if this
// node dies. The agent is purely additive — a compassd without one is
// a normal standalone daemon.
type Agent struct {
	coordAddr string
	coord     *server.Client // the coordinator's control plane
	srv       *server.Server

	interval time.Duration
	inflight atomic.Int64
	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// maxInflightPushes bounds concurrent checkpoint pushes per node; a
// coordinator outage then costs dropped restore points, not blocked
// runners.
const maxInflightPushes = 8

// StartAgent registers srv with the coordinator at coordAddr and starts
// the heartbeat and checkpoint-push loops. The heartbeat cadence comes
// from the coordinator's registration response.
func StartAgent(coordAddr string, srv *server.Server) (*Agent, error) {
	a := &Agent{
		coordAddr: coordAddr,
		coord:     server.NewClient(coordAddr, 15*time.Second),
		srv:       srv,
		stop:      make(chan struct{}),
	}
	interval, err := a.register()
	if err != nil {
		return nil, err
	}
	a.interval = interval

	// Per-chunk failover state: every boundary, ship the full export
	// document. The hook runs on the session's runner goroutine between
	// chunks — the snapshot must happen there (that goroutine is the
	// boundary state's one writer) but the push must not block the
	// simulation, so it ships asynchronously. Pushes in excess of the
	// in-flight cap are dropped: losing one only means a slightly older
	// restore point, and replay from an older boundary is still exact.
	srv.Manager().SetBoundaryHook(func(s *server.Session) {
		doc, err := server.BuildExportDoc(s)
		if err != nil {
			return
		}
		if a.inflight.Add(1) > maxInflightPushes {
			a.inflight.Add(-1)
			return
		}
		go func() {
			defer a.inflight.Add(-1)
			a.pushCheckpoint(s.ID, doc)
		}()
	})

	a.wg.Add(1)
	go a.heartbeatLoop()
	return a, nil
}

// register announces the node; retried by the heartbeat loop when the
// coordinator answers 409 (it restarted and lost the registry).
func (a *Agent) register() (time.Duration, error) {
	req := &RegisterRequest{
		NodeID:       a.srv.NodeID(),
		HTTPAddr:     a.srv.AdvertiseHTTPAddr(),
		StreamAddr:   a.srv.AdvertiseStreamAddr(),
		Capacity:     a.srv.Manager().Capacity(),
		MemoryBudget: a.srv.Manager().MemoryBudget(),
	}
	var resp RegisterResponse
	if err := a.coord.Do(http.MethodPost, "/v1/cluster/nodes/register", req, &resp); err != nil {
		return 0, fmt.Errorf("cluster: register: %w", err)
	}
	interval := time.Duration(resp.HeartbeatMillis) * time.Millisecond
	if interval <= 0 {
		interval = 2 * time.Second
	}
	return interval, nil
}

// heartbeatLoop reports load and session pulses until Stop.
func (a *Agent) heartbeatLoop() {
	defer a.wg.Done()
	t := time.NewTicker(a.interval)
	defer t.Stop()
	for {
		select {
		case <-a.stop:
			return
		case <-t.C:
		}
		if err := a.heartbeat(); err != nil {
			// A 409 means the coordinator no longer knows us (restart);
			// re-register and carry on.
			if _, rerr := a.register(); rerr != nil {
				continue
			}
			a.heartbeat()
		}
	}
}

// heartbeat posts one load report.
func (a *Agent) heartbeat() error {
	mgr := a.srv.Manager()
	running, queued, _ := mgr.Counts()
	infos := mgr.List()
	pulses := make([]SessionPulse, 0, len(infos))
	for _, info := range infos {
		pulses = append(pulses, SessionPulse{ID: info.ID, State: info.State, Error: info.Error})
	}
	hb := &Heartbeat{
		NodeID:   a.srv.NodeID(),
		Used:     mgr.UsedCapacity(),
		MemUsed:  mgr.MemoryUsed(),
		Resident: mgr.ResidentImageHashes(),
		Running:  running,
		Queued:   queued,
		Sessions: pulses,
	}
	return a.coord.Do(http.MethodPost, "/v1/cluster/nodes/heartbeat", hb, nil)
}

// pushCheckpoint ships one boundary export document.
func (a *Agent) pushCheckpoint(sessionID string, doc *server.ExportDoc) {
	p := &CheckpointPush{
		NodeID:        a.srv.NodeID(),
		NodeSessionID: sessionID,
		Export:        *doc,
	}
	// A lost push only means an older restore point.
	_ = a.coord.Do(http.MethodPost, "/v1/cluster/checkpoint", p, nil)
}

// Drain asks the coordinator to migrate every session off this node
// (the SIGTERM path), returning once the coordinator has finished or
// the timeout passes.
func (a *Agent) Drain(timeout time.Duration) error {
	err := server.NewClient(a.coordAddr, timeout).Do(http.MethodPost,
		"/v1/cluster/nodes/"+a.srv.NodeID()+"/drain", struct{}{}, nil)
	if err != nil {
		return fmt.Errorf("cluster: drain: %w", err)
	}
	return nil
}

// Stop ends the loops and deregisters from the coordinator.
func (a *Agent) Stop() {
	a.stopOnce.Do(func() { close(a.stop) })
	a.wg.Wait()
	// A coordinator that is already gone needs no deregistration.
	_ = a.coord.Do(http.MethodDelete, "/v1/cluster/nodes/"+a.srv.NodeID(), nil, nil)
}
