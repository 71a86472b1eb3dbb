// Command scenario drives registered closed-loop task environments
// (internal/scenario) against a live serving surface — a standalone
// compassd or a cluster coordinator, which serves the same session
// routes and a stream proxy, so the two are driven the same way.
//
// Subcommands:
//
//	scenario list
//	scenario run -scenario bandit -addr 127.0.0.1:7180 -episodes 3 -seed 7
//	scenario bench -scenario charrec -addr 127.0.0.1:7180 -concurrency 1,4,16 -out BENCH_scenario.json
//
// `run -verify` additionally replays the recorded inject stream through
// compass.Run in-process and fails unless the live episode trajectory
// is reproduced bit-for-bit (the determinism pin).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"github.com/cognitive-sim/compass/internal/compass"
	"github.com/cognitive-sim/compass/internal/scenario"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "list":
		err = cmdList(os.Args[2:])
	case "run":
		err = cmdRun(os.Args[2:])
	case "bench":
		err = cmdBench(os.Args[2:])
	case "-h", "-help", "--help", "help":
		usage()
		return
	default:
		fmt.Fprintf(os.Stderr, "scenario: unknown subcommand %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "scenario:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  scenario list
  scenario run   -scenario NAME -addr HOST:PORT [-episodes N] [-steps N] [-seed S] [-transport T] [-verify] [-json]
  scenario bench -scenario NAME -addr HOST:PORT [-episodes N] [-seed S] [-concurrency 1,4,16] [-out FILE]`)
}

func cmdList(args []string) error {
	fs := flag.NewFlagSet("list", flag.ExitOnError)
	if err := fs.Parse(args); err != nil {
		return err
	}
	for _, name := range scenario.Names() {
		spec, err := scenario.Get(name)
		if err != nil {
			return err
		}
		fmt.Printf("%-10s %s\n", spec.Name, spec.Description)
		fmt.Printf("%-10s defaults: %d episodes x %d steps, window %d ticks (guard %d)\n",
			"", spec.Episodes, spec.Steps, spec.WindowTicks, spec.GuardTicks)
	}
	return nil
}

func cmdRun(args []string) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	var (
		name      = fs.String("scenario", "", "registered scenario name (see `scenario list`)")
		addr      = fs.String("addr", "127.0.0.1:7180", "daemon or coordinator HTTP address")
		episodes  = fs.Int("episodes", 0, "episodes to run (0 = scenario default)")
		steps     = fs.Int("steps", 0, "decision steps per episode (0 = scenario default)")
		seed      = fs.Uint64("seed", 1, "task + model seed")
		transport = fs.String("transport", "", "session transport (mpi|pgas|shmem, empty = server default)")
		verify    = fs.Bool("verify", false, "replay the inject stream through compass.Run and pin the trajectory")
		asJSON    = fs.Bool("json", false, "print the full result as JSON")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *name == "" {
		return fmt.Errorf("run: -scenario is required")
	}
	spec, err := scenario.Get(*name)
	if err != nil {
		return err
	}
	c, err := scenario.Dial(*addr)
	if err != nil {
		return err
	}
	target := "daemon"
	if c.Cluster() {
		target = "coordinator cluster"
	}
	fmt.Fprintf(os.Stderr, "scenario: running %s against %s at %s\n", spec.Name, target, *addr)

	res, err := scenario.Run(c, spec, scenario.RunOptions{
		Episodes:  *episodes,
		Steps:     *steps,
		Seed:      *seed,
		Transport: *transport,
		Report:    true,
	})
	if err != nil {
		return err
	}
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			return err
		}
	} else {
		printResult(res)
	}
	if *verify {
		if err := scenario.Replay(spec, res, compass.Config{}); err != nil {
			return fmt.Errorf("verify: %w", err)
		}
		fmt.Println("verify: replay through compass.Run reproduced the live trajectory bit-for-bit")
	}
	return nil
}

func printResult(res *scenario.Result) {
	s := res.Score
	fmt.Printf("%s seed=%d: %d episodes x %d steps in %.2fs (%.1f ep/s)\n",
		res.Scenario, res.Seed, res.Episodes, res.Steps, res.ElapsedSeconds,
		float64(res.Episodes)/res.ElapsedSeconds)
	fmt.Printf("  score: reward %.1f, %d/%d correct, mean decision latency %.2f ticks\n",
		s.Reward, s.Correct, s.Steps, s.MeanLatencyTicks)
	for k, v := range s.Extra {
		fmt.Printf("  %s: %.3f\n", k, v)
	}
	fmt.Printf("  rtt: p50 %s p99 %s\n",
		time.Duration(res.RTTPercentile(0.50)*float64(time.Second)).Round(time.Microsecond),
		time.Duration(res.RTTPercentile(0.99)*float64(time.Second)).Round(time.Microsecond))
	fmt.Printf("  inject: %d records, sha256 %s\n", len(res.Injected), res.InjectHash)
	fmt.Printf("  session: %s\n", res.SessionID)
}

func cmdBench(args []string) error {
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	var (
		name     = fs.String("scenario", "bandit", "registered scenario name")
		addr     = fs.String("addr", "127.0.0.1:7180", "daemon or coordinator HTTP address")
		episodes = fs.Int("episodes", 0, "episodes per session (0 = scenario default)")
		steps    = fs.Int("steps", 0, "steps per episode (0 = scenario default)")
		seed     = fs.Uint64("seed", 1, "base seed (session i uses seed+i)")
		levels   = fs.String("concurrency", "1,4,16", "comma-separated concurrent session counts")
		out      = fs.String("out", "", "write the report JSON to this file (default stdout only)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	conc, err := parseLevels(*levels)
	if err != nil {
		return err
	}
	report, err := scenario.RunBench(*addr, scenario.BenchOptions{
		Scenario:    *name,
		Seed:        *seed,
		Episodes:    *episodes,
		Steps:       *steps,
		Concurrency: conc,
	})
	if err != nil {
		return err
	}
	raw, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(raw))
	if *out != "" {
		if err := os.WriteFile(*out, append(raw, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "scenario: wrote %s\n", *out)
	}
	return nil
}

func parseLevels(s string) ([]int, error) {
	var levels []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bench: bad concurrency level %q", part)
		}
		levels = append(levels, n)
	}
	if len(levels) == 0 {
		return nil, fmt.Errorf("bench: no concurrency levels")
	}
	return levels, nil
}
