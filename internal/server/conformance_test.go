package server_test

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"io"
	"net/http"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/cognitive-sim/compass/internal/cluster"
	"github.com/cognitive-sim/compass/internal/coreobject"
	"github.com/cognitive-sim/compass/internal/server"
)

// exchange is one request of the conformance script and what the
// surfaces must agree on about its answer.
type exchange struct {
	name   string
	method string
	path   string // "{id}" stands for the session the script created
	body   string
	want   int // the status a daemon gives; every surface must give it too
	// settle marks an answer that races a transition of the session's
	// runner (create: queued to paused; resume: the run to its end) and
	// names the state the runner will reach: only the answer's status is
	// compared, and the script waits for that state so that everything
	// after it is deterministic again.
	settle string
}

// answer is what is compared across surfaces: the status, the headers
// that carry meaning, and the body — a session document without the
// fields that name the surface (id, node, placement, created_at), raw
// bytes for a checkpoint, and only the presence of the {"error": …}
// envelope for a refusal, whose wording may name the surface.
type answer struct {
	Status      int
	ContentType string
	CkptTick    string
	Doc         map[string]any
	Raw         []byte
}

// surface is a control plane that serves the session routes.
type surface struct {
	name, addr string
}

func startDaemon(t *testing.T, nodeID string) *server.Server {
	t.Helper()
	srv := server.New(server.Options{
		HTTPAddr: "127.0.0.1:0", StreamAddr: "127.0.0.1:0", NodeID: nodeID,
		Manager: server.ManagerOptions{CapacitySecondsPerTick: 1e9, ChunkTicks: 10},
	})
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	return srv
}

// startSurfaces brings up a bare daemon, and a coordinator with one
// node behind it.
func startSurfaces(t *testing.T) []surface {
	t.Helper()
	daemon := startDaemon(t, "solo")
	coord := cluster.NewCoordinator(cluster.Options{
		HTTPAddr: "127.0.0.1:0", StreamAddr: "127.0.0.1:0",
		HeartbeatInterval: 50 * time.Millisecond,
		Logf:              func(string, ...any) {},
	})
	if err := coord.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		coord.Shutdown(ctx)
	})
	agent, err := cluster.StartAgent(coord.HTTPAddr(), startDaemon(t, "n1"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(agent.Stop)
	return []surface{
		{"daemon", daemon.HTTPAddr()},
		{"coordinator", coord.HTTPAddr()},
	}
}

// do issues one exchange and reduces the reply to what is compared.
func (s surface) do(t *testing.T, method, path, body string) answer {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, "http://"+s.addr+path, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s: %s %s: %v", s.name, method, path, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("%s: %s %s: %v", s.name, method, path, err)
	}
	a := answer{
		Status:      resp.StatusCode,
		ContentType: resp.Header.Get("Content-Type"),
		CkptTick:    resp.Header.Get("X-Compass-Checkpoint-Tick"),
	}
	switch {
	case a.ContentType == "application/json":
		if err := json.Unmarshal(raw, &a.Doc); err != nil {
			t.Fatalf("%s: %s %s: body %q: %v", s.name, method, path, raw, err)
		}
		if resp.StatusCode > 299 {
			if msg, _ := a.Doc["error"].(string); msg == "" {
				t.Fatalf("%s: %s %s: status %d without an error envelope: %s", s.name, method, path, resp.StatusCode, raw)
			}
			a.Doc = nil
		}
	case len(raw) > 0:
		a.Raw = raw
	}
	return a
}

// TestSurfaceConformance runs one request script against a bare daemon
// and against a coordinator with a node behind it, and requires the
// same answers: a client must not be able to tell which it talks to.
func TestSurfaceConformance(t *testing.T) {
	defer server.SetStepInjectTimeout(100 * time.Millisecond)()

	var model bytes.Buffer
	if err := coreobject.WriteModel(&model, server.TestModel(4, 77)); err != nil {
		t.Fatal(err)
	}
	create, err := json.Marshal(&server.CreateRequest{
		Name:        "conformance",
		Source:      server.SourceSpec{Kind: "model", ModelBase64: base64.StdEncoding.EncodeToString(model.Bytes())},
		Ranks:       2,
		Threads:     2,
		Transport:   "mpi",
		Ticks:       40,
		StartPaused: true,
		Scenario:    "conformance",
	})
	if err != nil {
		t.Fatal(err)
	}
	noTicks := strings.Replace(string(create), `"ticks":40`, `"ticks":0`, 1)

	script := []exchange{
		{name: "create start-paused", method: "POST", path: "/v1/sessions", body: string(create), want: 201, settle: "paused"},
		{name: "get", method: "GET", path: "/v1/sessions/{id}", want: 200},
		{name: "step", method: "POST", path: "/v1/sessions/{id}/step", body: `{"ticks":10}`, want: 200},
		{name: "pause", method: "POST", path: "/v1/sessions/{id}/pause", want: 200},
		{name: "checkpoint at the pause", method: "GET", path: "/v1/sessions/{id}/checkpoint", want: 200},
		{name: "step, malformed body", method: "POST", path: "/v1/sessions/{id}/step", body: `{"ticks":`, want: 400},
		{name: "step, no ticks", method: "POST", path: "/v1/sessions/{id}/step", body: `{"ticks":0}`, want: 409},
		{name: "step, unsatisfiable min_injected", method: "POST", path: "/v1/sessions/{id}/step", body: `{"ticks":10,"min_injected":5}`, want: 504},
		{name: "scenario-report, malformed body", method: "POST", path: "/v1/sessions/{id}/scenario-report", body: `[`, want: 400},
		{name: "resume", method: "POST", path: "/v1/sessions/{id}/resume", want: 200, settle: "done"},
		{name: "get, done", method: "GET", path: "/v1/sessions/{id}", want: 200},
		{name: "scenario-report", method: "POST", path: "/v1/sessions/{id}/scenario-report", body: `{"episodes":1,"steps":4,"reward":2.5}`, want: 200},
		{name: "checkpoint, final", method: "GET", path: "/v1/sessions/{id}/checkpoint", want: 200},
		{name: "resume, done", method: "POST", path: "/v1/sessions/{id}/resume", want: 409},
		{name: "stop", method: "POST", path: "/v1/sessions/{id}/stop", want: 200},
		{name: "delete", method: "DELETE", path: "/v1/sessions/{id}", want: 204},
		{name: "get, deleted", method: "GET", path: "/v1/sessions/{id}", want: 404},
		{name: "get, unknown", method: "GET", path: "/v1/sessions/nope", want: 404},
		{name: "step, unknown", method: "POST", path: "/v1/sessions/nope/step", body: `{"ticks":1}`, want: 404},
		{name: "checkpoint, unknown", method: "GET", path: "/v1/sessions/nope/checkpoint", want: 404},
		{name: "delete, unknown", method: "DELETE", path: "/v1/sessions/nope", want: 404},
		{name: "create, malformed body", method: "POST", path: "/v1/sessions", body: `{`, want: 400},
		{name: "create, no ticks", method: "POST", path: "/v1/sessions", body: noTicks, want: 400},
	}

	var reference []answer
	for _, s := range startSurfaces(t) {
		var id string
		var got []answer
		for _, ex := range script {
			a := s.do(t, ex.method, strings.Replace(ex.path, "{id}", id, 1), ex.body)
			if a.Status != ex.want {
				t.Fatalf("%s: %s: status %d, want %d", s.name, ex.name, a.Status, ex.want)
			}
			if a.Doc != nil {
				if docID, _ := a.Doc["id"].(string); docID == "" || id != "" && docID != id {
					t.Fatalf("%s: %s: session document names %q, the session is %q", s.name, ex.name, docID, id)
				} else {
					id = docID
				}
				for _, k := range []string{"id", "node", "placement", "created_at"} {
					delete(a.Doc, k)
				}
			}
			if ex.settle != "" {
				a.Doc = nil
				deadline := time.Now().Add(30 * time.Second)
				for s.do(t, "GET", "/v1/sessions/"+id, "").Doc["state"] != ex.settle {
					if time.Now().After(deadline) {
						t.Fatalf("%s: session %s did not reach %q", s.name, id, ex.settle)
					}
					time.Sleep(2 * time.Millisecond)
				}
			}
			got = append(got, a)
		}
		if reference == nil {
			reference = got
			continue
		}
		for i, ex := range script {
			if !reflect.DeepEqual(got[i], reference[i]) {
				t.Errorf("%s: %s answers differently from the daemon:\n  got  %+v\n  want %+v", s.name, ex.name, got[i], reference[i])
			}
		}
	}
}
