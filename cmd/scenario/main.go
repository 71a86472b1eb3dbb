// Command scenario drives registered closed-loop task environments
// (internal/scenario) against a live serving surface — a standalone
// compassd or a cluster coordinator, which serves the same session
// routes and a stream proxy, so the two are driven the same way.
//
// Subcommands:
//
//	scenario list
//	scenario run -scenario bandit -addr 127.0.0.1:7180 -episodes 3 -seed 7
//
// `run -verify` additionally replays the recorded inject stream through
// compass.Run in-process and fails unless the live episode trajectory
// is reproduced bit-for-bit (the determinism pin). Serving latency is
// measured by the repository benchmark (bench/run.sh, workloads
// serve-loop and cluster-loop), not by this command.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
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
  scenario run -scenario NAME -addr HOST:PORT [-episodes N] [-steps N] [-seed S] [-transport T] [-verify] [-json]`)
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
