// Command bench is the repository's benchmark: six workloads that
// between them reach every layer from the Synapse kernel to the cluster
// coordinator, each measured from outside through public functions.
//
// One invocation measures one workload for -seconds seconds and prints,
// as the last line of its standard output, a JSON object with the
// end-to-end metrics (-trace 0) or the per-layer metrics (-trace 1)
// that BENCHMARK.json names. -all runs every workload repeatedly in
// child processes and writes the set of results to a file; -compare
// judges two such sets against the bounds in BENCHMARK.json. See
// README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sync"
	"time"
)

// run is one measurement of one workload: its inputs, and the metrics
// and operation counts it produces.
type run struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
	size     sizing
	outDir   string
	// golden holds the pinned counts; a run checks them when checkGolden
	// is set (default seed at full size) and rewrites its own entry when
	// recordGolden is.
	golden       *goldenFile
	checkGolden  bool
	recordGolden bool

	metrics map[string]float64
	ops
}

// ops counts attempted and failed operations.
type ops struct{ attempted, failed int }

// set records one metric value.
func (r *run) set(name string, v float64) { r.metrics[name] = v }

// op counts one attempted operation; a non-nil err makes it a failed
// one and is reported on standard error.
func (o *ops) op(err error) bool {
	o.attempted++
	if err != nil {
		o.failed++
		fmt.Fprintf(os.Stderr, "bench: failed operation: %v\n", err)
	}
	return err == nil
}

func (o *ops) add(other ops) {
	o.attempted += other.attempted
	o.failed += other.failed
}

// warmup is the untimed share of work that precedes the timed region.
func (r *run) warmup() time.Duration { return r.seconds / 10 }

// workloads maps each workload name in BENCHMARK.json to its driver.
var workloads = map[string]func(*run) error{
	"dense-compute":  denseCompute.run,
	"remote-network": remoteNetwork.run,
	"cocomac-solo":   cocomacSolo.run,
	"cocomac-batch8": cocomacBatch8.run,
	"serve-loop":     serveLoop.run,
	"cluster-loop":   clusterLoop.run,
}

// host is the fingerprint written into every result.
type host struct {
	CPUs        int    `json:"cpus"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	GoVersion   string `json:"go_version"`
	GitSHA      string `json:"git_sha"`
	Seed        uint64 `json:"seed"`
	HeartbeatMS int64  `json:"heartbeat_ms"`
}

func fingerprint(seed uint64) host {
	h := host{
		CPUs:        runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		GoVersion:   runtime.Version(),
		GitSHA:      "unknown",
		Seed:        seed,
		HeartbeatMS: heartbeatInterval.Milliseconds(),
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				h.GitSHA = s.Value
			}
		}
	}
	return h
}

// warmHost keeps every CPU the run may use busy for d. On the reference
// host (a 2-vCPU VM) CPUs that have idled for a few seconds are parked:
// waking one then costs about a millisecond, which triples serve-loop's
// window time and is three quarters of its set-up time, and the state
// lasts for a whole run. A second and a half of load unparks them, and
// every workload but cluster-loop keeps them so; with this, a run
// starts from the same host state whatever ran before it.
func warmHost(d time.Duration) {
	var wg sync.WaitGroup
	for end, i := time.Now().Add(d), 0; i < runtime.GOMAXPROCS(0); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(end) {
			}
		}()
	}
	wg.Wait()
}

// metricValue is one entry of the result line's metrics object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the object a run prints last.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// measure runs one workload and assembles its result line from the
// metrics the manifest lists for the chosen mode. An end-to-end metric
// the workload did not set is an error; a per-layer metric it did not
// set belongs to a layer the workload bypasses and reads 0.
func measure(mf *manifest, r *run) (*resultLine, error) {
	drive, ok := workloads[r.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", r.workload)
	}
	r.metrics = make(map[string]float64)
	warmHost(r.size.hostWarm)
	if err := drive(r); err != nil {
		return nil, fmt.Errorf("%s: %w", r.workload, err)
	}
	for name := range r.metrics {
		if !mf.has(name) {
			return nil, fmt.Errorf("%s: metric %s is not in the manifest", r.workload, name)
		}
	}
	defs := mf.EndToEnd
	if r.trace {
		defs = mf.PerLayer
	}
	line := &resultLine{
		Correct:   r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		v, set := r.metrics[d.Name]
		if !set && !r.trace {
			return nil, fmt.Errorf("%s: end-to-end metric %s was not measured", r.workload, d.Name)
		}
		line.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return line, nil
}

func main() {
	var (
		workload     = flag.String("workload", "", "workload to measure (a name in BENCHMARK.json)")
		seed         = flag.Uint64("seed", goldenSeed, "seed the workload's inputs are generated from")
		seconds      = flag.Float64("seconds", 10, "length of the timed region")
		trace        = flag.Int("trace", 0, "0: end-to-end metrics from an untraced run; 1: per-layer metrics from a traced run")
		manifestPath = flag.String("manifest", "BENCHMARK.json", "benchmark manifest")
		outDir       = flag.String("out", "bench/out", "directory for trace files")
		all          = flag.String("all", "", "measure every workload -runs times in child processes and write the set of results to this file")
		runs         = flag.Int("runs", 10, "with -all: untraced runs per workload, each with its own seed")
		compare      = flag.Bool("compare", false, "compare two result sets written by -all: -compare a.json b.json")
		updateGolden = flag.Bool("update-golden", false, "regenerate bench/golden.json from the default seed")
	)
	flag.Parse()
	// The reference host has two CPUs; a larger one must not change what
	// a workload's thread counts mean.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 2))

	mf, err := loadManifest(*manifestPath)
	if err != nil {
		fatal(err)
	}
	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two result files"))
		}
		worse, err := compareSets(os.Stdout, mf, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if worse {
			os.Exit(1)
		}
	case *updateGolden:
		if err := regenerateGolden(mf, filepath.Join("bench", "golden.json"), *outDir); err != nil {
			fatal(err)
		}
	case *all != "":
		if err := runAll(mf, *manifestPath, *outDir, *all, *runs, *seed, *seconds); err != nil {
			fatal(err)
		}
	default:
		golden, err := loadGolden()
		if err != nil {
			fatal(err)
		}
		r := &run{
			workload:    *workload,
			seed:        *seed,
			seconds:     time.Duration(*seconds * float64(time.Second)),
			trace:       *trace != 0,
			size:        fullSize,
			outDir:      *outDir,
			golden:      golden,
			checkGolden: *seed == goldenSeed,
		}
		line, err := measure(mf, r)
		if err != nil {
			fatal(err)
		}
		report(os.Stdout, r, line)
		if !line.Correct {
			os.Exit(1)
		}
	}
}

// report prints the host fingerprint, every metric by name with its
// unit, and the result line last.
func report(w *os.File, r *run, line *resultLine) {
	fp, _ := json.Marshal(fingerprint(r.seed))
	fmt.Fprintf(w, "workload %s trace=%v seconds=%g host=%s\n", r.workload, r.trace, r.seconds.Seconds(), fp)
	for _, name := range sortedKeys(line.Metrics) {
		m := line.Metrics[name]
		fmt.Fprintf(w, "  %-36s %16.4f %s\n", name, m.Value, m.Unit)
	}
	out, _ := json.Marshal(line)
	fmt.Fprintf(w, "%s\n", out)
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "bench: %v\n", err)
	os.Exit(2)
}
