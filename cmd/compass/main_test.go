package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/cognitive-sim/compass/internal/telemetry"
)

// smallCoCoMac is the CLI workload of the telemetry and fault checks:
// the CoCoMac network at 128 cores, 3 ranks x 2 threads, 20 ticks.
func smallCoCoMac() runArgs {
	return runArgs{cocomacCores: 128, seed: 2012, ranks: 3, threads: 2, ticks: 20, transport: "mpi"}
}

// TestRunExportsTelemetry runs the CLI with every export sink on and
// checks what each file promises its consumer: a Prometheus exposition
// a scraper accepts, a snapshot and run statistics that decode, and a
// trace with phase spans. The span fields themselves are pinned by
// TestChromeTraceSchema in internal/compass.
func TestRunExportsTelemetry(t *testing.T) {
	dir := t.TempDir()
	a := smallCoCoMac()
	a.metricsPrefix = filepath.Join(dir, "run")
	a.tracePath = filepath.Join(dir, "trace.json")
	a.statsJSONPath = filepath.Join(dir, "stats.json")
	if err := run(a); err != nil {
		t.Fatal(err)
	}

	prom, err := os.ReadFile(a.metricsPrefix + ".prom")
	if err != nil {
		t.Fatal(err)
	}
	if err := checkPrometheus(string(prom)); err != nil {
		t.Fatalf("%s.prom: %v", a.metricsPrefix, err)
	}

	var snap telemetry.Snapshot
	decodeFile(t, a.metricsPrefix+".json", &snap)
	if len(snap.Metrics) == 0 {
		t.Fatal("metrics snapshot is empty")
	}

	var stats struct{ Ticks, Ranks, Threads int }
	decodeFile(t, a.statsJSONPath, &stats)
	if stats.Ticks != a.ticks || stats.Ranks != a.ranks || stats.Threads != a.threads {
		t.Fatalf("stats %+v, want %d ticks on %d ranks x %d threads", stats, a.ticks, a.ranks, a.threads)
	}

	var trace struct {
		TraceEvents []struct{ Ph string } `json:"traceEvents"`
	}
	decodeFile(t, a.tracePath, &trace)
	spans := 0
	for _, ev := range trace.TraceEvents {
		if ev.Ph == "X" {
			spans++
		}
	}
	if spans == 0 {
		t.Fatal("trace has no complete (X) spans")
	}
}

// TestCrashFaultNamesRankAndTick: an injected rank crash must fail the
// run with an error that names the rank and the tick, printed on one
// line with a single "compass:" prefix.
func TestCrashFaultNamesRankAndTick(t *testing.T) {
	a := smallCoCoMac()
	a.faultSpec = "crash:rank=1,tick=5"
	err := run(a)
	if err == nil {
		t.Fatal("run survived an injected crash")
	}
	line := errorLine(err)
	if !strings.Contains(line, "rank 1") || !strings.Contains(line, "tick 5") {
		t.Fatalf("error %q does not name rank 1 and tick 5", line)
	}
	if n := strings.Count(line, "compass:"); n != 1 || strings.Contains(line, "\n") {
		t.Fatalf("error line %q: want one line with one compass: prefix", line)
	}
}

func decodeFile(t *testing.T, path string, v any) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, v); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
}

// checkPrometheus validates the text exposition format shape: every
// non-comment line is `name{labels} value` or `name value`, every series
// name was declared by a preceding # TYPE, and histograms carry the
// mandatory +Inf bucket, _sum, and _count series.
func checkPrometheus(exposition string) error {
	typed := map[string]string{} // metric family -> type
	families := map[string]bool{}
	histSeen := map[string]map[string]bool{} // family -> {inf, sum, count}
	samples := 0

	sc := bufio.NewScanner(strings.NewReader(exposition))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for line := 1; sc.Scan(); line++ {
		text := sc.Text()
		switch {
		case text == "":
			continue
		case strings.HasPrefix(text, "# HELP "), strings.HasPrefix(text, "# TYPE "):
			fields := strings.Fields(text)
			if len(fields) < 4 {
				return fmt.Errorf("line %d: truncated comment %q", line, text)
			}
			if fields[1] == "TYPE" {
				typed[fields[2]] = fields[3]
			}
			continue
		case strings.HasPrefix(text, "#"):
			return fmt.Errorf("line %d: unknown comment form %q", line, text)
		}
		name := text
		if i := strings.IndexAny(text, "{ "); i >= 0 {
			name = text[:i]
		}
		rest := text[len(name):]
		if strings.HasPrefix(rest, "{") {
			end := strings.Index(rest, "}")
			if end < 0 {
				return fmt.Errorf("line %d: unterminated label set", line)
			}
			rest = rest[end+1:]
		}
		if strings.TrimSpace(rest) == "" {
			return fmt.Errorf("line %d: sample %q has no value", line, name)
		}
		family := name
		suffix := ""
		for _, s := range []string{"_bucket", "_sum", "_count"} {
			if strings.HasSuffix(name, s) {
				if t, ok := typed[strings.TrimSuffix(name, s)]; ok && t == "histogram" {
					family = strings.TrimSuffix(name, s)
					suffix = s
				}
			}
		}
		t, ok := typed[family]
		if !ok {
			return fmt.Errorf("line %d: series %q has no # TYPE declaration", line, name)
		}
		families[family] = true
		if t == "histogram" {
			seen := histSeen[family]
			if seen == nil {
				seen = map[string]bool{}
				histSeen[family] = seen
			}
			switch suffix {
			case "_bucket":
				if strings.Contains(text, `le="+Inf"`) {
					seen["inf"] = true
				}
			case "_sum":
				seen["sum"] = true
			case "_count":
				seen["count"] = true
			default:
				return fmt.Errorf("line %d: bare sample %q for histogram family", line, name)
			}
		}
		samples++
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if samples == 0 {
		return fmt.Errorf("no samples")
	}
	for family, t := range typed {
		if t != "histogram" || !families[family] {
			continue
		}
		for _, part := range []string{"inf", "sum", "count"} {
			if !histSeen[family][part] {
				return fmt.Errorf("histogram %q is missing its %s series", family, part)
			}
		}
	}
	return nil
}
