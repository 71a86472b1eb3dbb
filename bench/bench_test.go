package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

var timeUnits = map[string]bool{"s": true, "ms": true, "us": true, "ns": true}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestManifest checks BENCHMARK.json against the limits of the
// benchmark contract and against the drivers this package has.
func TestManifest(t *testing.T) {
	mf, err := loadManifest("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if n := len(mf.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2 to 8", n)
	}
	if n := len(mf.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1 to 16", n)
	}
	if n := len(mf.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1 to 128", n)
	}
	if mf.RunSeconds < 5 || mf.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside [5, 60]", mf.RunSeconds)
	}
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q does not match %v", n, nameRE)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for _, w := range mf.Workloads {
		name(w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
		if workloads[w.Name] == nil {
			t.Errorf("workload %s has no driver", w.Name)
		}
	}
	if len(workloads) != len(mf.Workloads) {
		t.Errorf("%d drivers for %d workloads in the manifest", len(workloads), len(mf.Workloads))
	}
	for _, d := range append(append([]metricDef(nil), mf.EndToEnd...), mf.PerLayer...) {
		name(d.Name)
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("metric %s: unit %q does not match %v", d.Name, d.Unit, unitRE)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("metric %s: better is %q", d.Name, d.Better)
		}
	}
	setup := false
	for _, d := range mf.EndToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("metric %s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		if d.Name == "setup_s" {
			setup = d.Unit == "s" && d.Better == "lower"
		}
	}
	if !setup {
		t.Error("no end-to-end metric setup_s in s, lower is better")
	}
	// The benchmark's own go.mod is what keeps `go build ./...` and
	// `go test ./...` at the root from ever compiling or running it.
	if _, err := os.Stat("go.mod"); err != nil {
		t.Errorf("the benchmark must stay a module of its own: %v", err)
	}
}

// TestSmoke runs every workload in both modes at tiny size: each must
// pass its checks and emit every metric the manifest lists for the
// mode, with its unit; end-to-end values are never 0, and no per-layer
// time is 0 on all workloads.
func TestSmoke(t *testing.T) {
	mf, err := loadManifest("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	live := map[string]bool{}
	for _, w := range mf.Workloads {
		for _, trace := range []bool{false, true} {
			r := &run{
				workload: w.Name, seed: 3, seconds: 100 * time.Millisecond,
				trace: trace, size: tinySize, outDir: t.TempDir(),
				golden: &goldenFile{}, // tiny sizes have no pinned counts
			}
			line, err := measure(mf, r)
			if err != nil {
				t.Fatal(err)
			}
			if !line.Correct || line.Failed != 0 || line.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v, %d of %d operations failed", w.Name, trace, line.Correct, line.Failed, line.Attempted)
			}
			defs := mf.EndToEnd
			if trace {
				defs = mf.PerLayer
			}
			if len(line.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics emitted, manifest lists %d", w.Name, trace, len(line.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := line.Metrics[d.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s not emitted", w.Name, trace, d.Name)
				case m.Unit != d.Unit:
					t.Errorf("%s: metric %s has unit %q, manifest says %q", w.Name, d.Name, m.Unit, d.Unit)
				case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
					t.Errorf("%s: metric %s is %v", w.Name, d.Name, m.Value)
				case !trace && m.Value <= 0:
					t.Errorf("%s: end-to-end metric %s is %v, must be positive", w.Name, d.Name, m.Value)
				case m.Value != 0:
					live[d.Name] = true
				}
			}
			if trace {
				if _, err := os.Stat(filepath.Join(r.outDir, w.Name+".trace.json")); err != nil {
					t.Errorf("%s: no trace file: %v", w.Name, err)
				}
			}
		}
	}
	for _, d := range mf.PerLayer {
		// A count may well be 0 everywhere (scalar cores, dropped records);
		// a time that is means a span nobody records. The MPI transport
		// has no barrier phase, which the per-transport table cannot say.
		if timeUnits[d.Unit] && !live[d.Name] && d.Name != "compass.net_barrier_us.mpi" {
			t.Errorf("per-layer time %s is 0 on every workload", d.Name)
		}
	}
}

// TestGoldenCoversDefaultSeed checks that golden.json has an entry for
// everything a default-seed run looks up.
func TestGoldenCoversDefaultSeed(t *testing.T) {
	g, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []*engineSpec{denseCompute, remoteNetwork, cocomacSolo, cocomacBatch8} {
		if _, ok := g.Engine[s.name]; !ok {
			t.Errorf("golden.json has no entry for %s", s.name)
		}
	}
	if len(g.Bandit) != banditSeeds {
		t.Errorf("golden.json pins %d bandit seeds, want %d", len(g.Bandit), banditSeeds)
	}
}

func TestSpreadMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	v := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	if got, want := spread(v), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
}

func TestCompareVerdicts(t *testing.T) {
	mf := &manifest{
		Workloads: []workloadDef{{Name: "w"}},
		EndToEnd: []metricDef{
			{Name: "steady", Unit: "ms", Better: "lower", Bound: 0.1},
			{Name: "slower", Unit: "ms", Better: "lower", Bound: 0.1},
			{Name: "rate", Unit: "1/s", Better: "higher", Bound: 0.1},
			{Name: "noisy", Unit: "ms", Better: "lower", Bound: 0.1},
		},
	}
	write := func(name string, e2e map[string][]float64) string {
		path := filepath.Join(t.TempDir(), name)
		raw, err := json.Marshal(resultSet{Workloads: map[string]*workloadResult{"w": {EndToEnd: e2e}}})
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a := write("a.json", map[string][]float64{
		"steady": {10, 10.1, 9.9, 10}, "slower": {10, 10, 10, 10}, "rate": {100, 100, 100, 100}, "noisy": {10, 14, 6, 10},
	})
	b := write("b.json", map[string][]float64{
		"steady": {10.2, 10.1, 10.3, 10.2}, "slower": {12, 12, 12, 12}, "rate": {80, 80, 80, 80}, "noisy": {10, 13, 7, 10},
	})
	var out bytes.Buffer
	worse, err := compareSets(&out, mf, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !worse {
		t.Error("compareSets reported no worse row")
	}
	for metric, verdict := range map[string]string{"steady": "ok", "slower": "worse", "rate": "worse", "noisy": "unresolved"} {
		found := false
		for _, row := range strings.Split(out.String(), "\n") {
			f := strings.Fields(row)
			if len(f) > 2 && f[1] == metric {
				found = true
				if f[len(f)-1] != verdict {
					t.Errorf("%s: verdict %s, want %s\n%s", metric, f[len(f)-1], verdict, row)
				}
			}
		}
		if !found {
			t.Errorf("no row for %s in\n%s", metric, out.String())
		}
	}
	if worse, err := compareSets(&out, mf, a, a); err != nil || worse {
		t.Errorf("a set compared with itself: worse=%v err=%v", worse, err)
	}
}
