package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"text/tabwriter"
)

// resultSet is what -all writes and -compare reads: every end-to-end
// value of every run, and one traced run's per-layer values, per
// workload.
type resultSet struct {
	Host      host                       `json:"host"`
	Runs      int                        `json:"runs"`
	Seconds   float64                    `json:"seconds"`
	Workloads map[string]*workloadResult `json:"workloads"`
	// Claim is always null: measuring claims no gain. A change that does
	// claim one cites two result sets and -compare's table instead.
	Claim *string `json:"claim"`
}

type workloadResult struct {
	Attempted int `json:"attempted"`
	Failed    int `json:"failed"`
	// EndToEnd holds one value per untraced run, in seed order.
	EndToEnd map[string][]float64 `json:"end_to_end"`
	PerLayer map[string]float64   `json:"per_layer"`
}

// child measures one workload in a process of its own, so that no run
// inherits another's heap, caches or resident-set peak.
func child(manifestPath, outDir, workload string, seed uint64, seconds float64, trace int) (*resultLine, error) {
	cmd := exec.Command(os.Args[0],
		"-manifest", manifestPath, "-out", outDir, "-workload", workload,
		"-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64),
		"-trace", strconv.Itoa(trace))
	cmd.Stderr = os.Stderr
	out, runErr := cmd.Output()
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var line resultLine
	if err := json.Unmarshal(lines[len(lines)-1], &line); err != nil {
		if runErr != nil {
			return nil, fmt.Errorf("%s seed %d: %w", workload, seed, runErr)
		}
		return nil, fmt.Errorf("%s seed %d: no result line: %w", workload, seed, err)
	}
	return &line, nil // a run that failed its checks still reports them
}

// runAll measures every workload runs times untraced, each run with its
// own seed, and once traced, then prints a summary and writes the set.
func runAll(mf *manifest, manifestPath, outDir, path string, runs int, seed uint64, seconds float64) error {
	set := &resultSet{Host: fingerprint(seed), Runs: runs, Seconds: seconds, Workloads: map[string]*workloadResult{}}
	for _, w := range mf.Workloads {
		wr := &workloadResult{EndToEnd: map[string][]float64{}, PerLayer: map[string]float64{}}
		set.Workloads[w.Name] = wr
		for i := 0; i <= runs; i++ {
			trace := 0
			if i == runs {
				trace = 1
			}
			line, err := child(manifestPath, outDir, w.Name, seed+uint64(i%runs), seconds, trace)
			if err != nil {
				return err
			}
			wr.Attempted += line.Attempted
			wr.Failed += line.Failed
			for name, m := range line.Metrics {
				if trace == 0 {
					wr.EndToEnd[name] = append(wr.EndToEnd[name], m.Value)
				} else {
					wr.PerLayer[name] = m.Value
				}
			}
			fmt.Fprintf(os.Stderr, "bench: %s run %d/%d done\n", w.Name, i+1, runs+1)
		}
	}

	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "workload\tmetric\tmedian\tunit\tspread\tbound\t")
	for _, w := range mf.Workloads {
		wr := set.Workloads[w.Name]
		for _, d := range mf.EndToEnd {
			v := wr.EndToEnd[d.Name]
			fmt.Fprintf(tw, "%s\t%s\t%.4f\t%s\t%.1f%%\t%.0f%%\t\n", w.Name, d.Name, median(v), d.Unit, spread(v)*100, d.Bound*100)
		}
		fmt.Fprintf(tw, "%s\tfailed operations\t%d\tof %d\t\t\t\n", w.Name, wr.Failed, wr.Attempted)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	raw, err := json.MarshalIndent(set, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(`"claim": null`)
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// spread is the distance between the first and third quartile as a
// share of the median, with the quartiles Python's
// statistics.quantiles(v, n=4) gives.
func spread(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	quartile := func(i int) float64 {
		m := len(s) + 1
		j := min(max(i*m/4, 1), len(s)-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return (quartile(3) - quartile(1)) / math.Abs(median(s))
}

func readSet(path string) (*resultSet, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var set resultSet
	if err := json.Unmarshal(raw, &set); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &set, nil
}

// compareSets prints one row per workload and end-to-end metric: both
// medians, their ratio with a as its base, the wider of the two
// spreads, and a verdict against the metric's bound — worse when b's
// median is worse than a's by more than the bound, unresolved when it
// is not but the spread exceeds the bound (so "no change" cannot be
// told), else ok. More failed operations in b than in a is worse too.
// It reports whether any row was worse.
func compareSets(w io.Writer, mf *manifest, pathA, pathB string) (bool, error) {
	a, err := readSet(pathA)
	if err != nil {
		return false, err
	}
	b, err := readSet(pathB)
	if err != nil {
		return false, err
	}
	anyWorse := false
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "workload\tmetric\ta\tb\tunit\tb/a\tspread\tbound\tverdict\t")
	for _, wl := range mf.Workloads {
		wa, wb := a.Workloads[wl.Name], b.Workloads[wl.Name]
		if wa == nil || wb == nil {
			return false, fmt.Errorf("workload %s is missing from one of the sets", wl.Name)
		}
		for _, d := range mf.EndToEnd {
			va, vb := wa.EndToEnd[d.Name], wb.EndToEnd[d.Name]
			if len(va) == 0 || len(vb) == 0 {
				return false, fmt.Errorf("%s: metric %s is missing from one of the sets", wl.Name, d.Name)
			}
			ma, mb := median(va), median(vb)
			worseBy := (mb - ma) / ma
			if d.Better == "higher" {
				worseBy = -worseBy
			}
			sp := max(spread(va), spread(vb))
			verdict := "ok"
			switch {
			case worseBy > d.Bound:
				verdict, anyWorse = "worse", true
			case sp > d.Bound:
				verdict = "unresolved"
			}
			fmt.Fprintf(tw, "%s\t%s\t%.4f\t%.4f\t%s\t%.3f\t%.1f%%\t%.0f%%\t%s\t\n",
				wl.Name, d.Name, ma, mb, d.Unit, mb/ma, sp*100, d.Bound*100, verdict)
		}
		verdict := "ok"
		if wb.Failed > wa.Failed {
			verdict, anyWorse = "worse", true
		}
		fmt.Fprintf(tw, "%s\tfailed operations\t%d\t%d\tcount\t\t\t\t%s\t\n", wl.Name, wa.Failed, wb.Failed, verdict)
	}
	return anyWorse, tw.Flush()
}
