// Command scenariosmoke is the end-to-end smoke test for the
// closed-loop scenario subsystem: it spawns a standalone compassd, runs
// every registered scenario (bandit, stroop, charrec) against it
// through the episode engine, checks the per-scenario and stream-RTT
// telemetry on /metrics, replays one run through compass.Run to pin
// determinism, then spawns a coordinator + node and re-runs a scenario
// through the cluster proxy, requiring a bit-identical inject stream
// and score.
//
// It exits non-zero on the first failed expectation. All output also
// goes to -log for CI artifact upload.
package main

import (
	"flag"
	"io"
	"log"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"syscall"
	"time"

	"github.com/cognitive-sim/compass/internal/compass"
	"github.com/cognitive-sim/compass/internal/scenario"
	"github.com/cognitive-sim/compass/internal/server"
)

var (
	compassd = flag.String("compassd", "", "path to the compassd binary (required)")
	workDir  = flag.String("dir", "scenario-smoke", "working directory for addr files and logs")
	logPath  = flag.String("log", "", "also write output to this file (default <dir>/scenario-smoke.log)")
)

type proc struct {
	name     string
	cmd      *exec.Cmd
	httpAddr string
}

func main() {
	flag.Parse()
	if *compassd == "" {
		log.Fatal("scenariosmoke: -compassd is required")
	}
	if err := os.MkdirAll(*workDir, 0o755); err != nil {
		log.Fatal(err)
	}
	lp := *logPath
	if lp == "" {
		lp = filepath.Join(*workDir, "scenario-smoke.log")
	}
	lf, err := os.Create(lp)
	if err != nil {
		log.Fatal(err)
	}
	defer lf.Close()
	out := io.MultiWriter(os.Stdout, lf)
	log.SetOutput(out)
	log.SetFlags(log.Ltime | log.Lmicroseconds)

	// Phase 1: every registered scenario against a standalone daemon.
	solo := startProc(out, "solo", "-listen", "127.0.0.1:0", "-stream-listen", "127.0.0.1:0")
	c := dial(solo.httpAddr)
	seeds := map[string]uint64{"bandit": 7, "charrec": 11, "stroop": 3}
	soloRes := map[string]*scenario.Result{}
	for _, name := range scenario.Names() {
		spec := mustSpec(name)
		res, err := scenario.Run(c, spec, scenario.RunOptions{Seed: seeds[name], Report: true})
		if err != nil {
			log.Fatalf("%s on solo daemon: %v", name, err)
		}
		soloRes[name] = res
		s := res.Score
		log.Printf("%-8s solo: %d eps x %d steps, reward %.1f, %d/%d correct, rtt p50 %.2fms p99 %.2fms, inject %s",
			name, res.Episodes, res.Steps, s.Reward, s.Correct, s.Steps,
			res.RTTPercentile(0.50)*1e3, res.RTTPercentile(0.99)*1e3, res.InjectHash[:12])
		if s.Steps != res.Episodes*res.Steps {
			log.Fatalf("%s: scored %d steps, expected %d", name, s.Steps, res.Episodes*res.Steps)
		}
		if s.Correct*2 < s.Steps {
			log.Fatalf("%s: only %d/%d correct — the loop is not closing", name, s.Correct, s.Steps)
		}
		if res.Info == nil || res.Info.Scenario != name {
			log.Fatalf("%s: session info is not scenario-tagged: %+v", name, res.Info)
		}
		if res.Info.StreamRTT == nil || res.Info.StreamRTT.Count == 0 {
			log.Fatalf("%s: session info carries no stream RTT stats", name)
		}
	}

	// The daemon's Prometheus surface must carry the scenario counters
	// and the inject→egress RTT histogram.
	var metrics []byte
	if err := server.NewClient(solo.httpAddr, time.Minute).Do(http.MethodGet, "/metrics", nil, &metrics); err != nil {
		log.Fatal(err)
	}
	for _, want := range []string{
		`compassd_scenario_episodes_total{scenario="bandit"}`,
		`compassd_scenario_steps_total{scenario="stroop"}`,
		`compassd_scenario_reward_total{scenario="charrec"}`,
		"compassd_stream_rtt_seconds_bucket",
	} {
		if !strings.Contains(string(metrics), want) {
			log.Fatalf("/metrics is missing %q", want)
		}
	}
	log.Printf("solo /metrics carries scenario counters and the stream RTT histogram")

	// Determinism pin: the recorded bandit inject stream replayed
	// through compass.Run must reproduce the live trajectory.
	if err := scenario.Replay(mustSpec("bandit"), soloRes["bandit"], compass.Config{}); err != nil {
		log.Fatalf("bandit replay: %v", err)
	}
	log.Printf("bandit replay through compass.Run reproduced the live trajectory")

	// Phase 2: one scenario through a coordinator cluster — same seed,
	// so the proxied run must be bit-identical to the solo run.
	coord := startProc(out, "coord", "-coordinator",
		"-listen", "127.0.0.1:0", "-stream-listen", "127.0.0.1:0", "-heartbeat", "500ms")
	startProc(out, "n1",
		"-listen", "127.0.0.1:0", "-stream-listen", "127.0.0.1:0",
		"-join", coord.httpAddr, "-node-id", "n1")
	waitNodes(coord.httpAddr, 1)
	cc := dial(coord.httpAddr)
	if !cc.Cluster() {
		log.Fatalf("%s did not identify as a coordinator", coord.httpAddr)
	}
	res, err := scenario.Run(cc, mustSpec("charrec"), scenario.RunOptions{Seed: seeds["charrec"], Report: true})
	if err != nil {
		log.Fatalf("charrec through coordinator: %v", err)
	}
	log.Printf("charrec cluster: session %s, reward %.1f, inject %s",
		res.SessionID, res.Score.Reward, res.InjectHash[:12])
	if res.InjectHash != soloRes["charrec"].InjectHash {
		log.Fatalf("cluster inject stream diverged from solo: %s vs %s",
			res.InjectHash, soloRes["charrec"].InjectHash)
	}
	if !reflect.DeepEqual(res.Score, soloRes["charrec"].Score) {
		log.Fatalf("cluster score diverged from solo:\n  cluster %+v\n  solo    %+v",
			res.Score, soloRes["charrec"].Score)
	}
	log.Printf("cluster-proxied run is bit-identical to the solo run")

	stopAll()
	log.Printf("scenario-smoke PASS")
}

func mustSpec(name string) *scenario.Spec {
	spec, err := scenario.Get(name)
	if err != nil {
		log.Fatal(err)
	}
	return spec
}

func dial(addr string) *scenario.Client {
	c, err := scenario.Dial(addr)
	if err != nil {
		log.Fatalf("dial %s: %v", addr, err)
	}
	return c
}

var procs []*proc

func startProc(out io.Writer, name string, args ...string) *proc {
	dir := filepath.Join(*workDir, name)
	addrFile := filepath.Join(dir, "addrs")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		log.Fatal(err)
	}
	os.Remove(addrFile)
	args = append(args, "-addr-file", addrFile, "-checkpoint-dir", filepath.Join(dir, "checkpoints"))
	cmd := exec.Command(*compassd, args...)
	cmd.Stdout = out
	cmd.Stderr = out
	if err := cmd.Start(); err != nil {
		log.Fatalf("start %s: %v", name, err)
	}
	p := &proc{name: name, cmd: cmd}
	procs = append(procs, p)
	deadline := time.Now().Add(15 * time.Second)
	for {
		raw, err := os.ReadFile(addrFile)
		if err == nil {
			for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
				if v, ok := strings.CutPrefix(line, "http="); ok {
					p.httpAddr = v
				}
			}
			if p.httpAddr != "" {
				return p
			}
		}
		if time.Now().After(deadline) {
			log.Fatalf("%s did not write %s", name, addrFile)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// stopAll terminates every spawned daemon. Fatal paths skip it (like
// clustersmoke); orphans die with the CI job.
func stopAll() {
	for _, p := range procs {
		p.cmd.Process.Signal(syscall.SIGTERM)
	}
	for _, p := range procs {
		p.cmd.Wait()
	}
}

func waitNodes(coordAddr string, n int) {
	coord := server.NewClient(coordAddr, time.Minute)
	deadline := time.Now().Add(15 * time.Second)
	for {
		var health struct {
			Nodes struct {
				Alive int `json:"alive"`
			} `json:"nodes"`
		}
		if err := coord.Do(http.MethodGet, "/healthz", nil, &health); err == nil && health.Nodes.Alive >= n {
			return
		}
		if time.Now().After(deadline) {
			log.Fatalf("coordinator never saw %d node(s)", n)
		}
		time.Sleep(100 * time.Millisecond)
	}
}
