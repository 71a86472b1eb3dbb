package main

import (
	"flag"
	"fmt"
	"io"

	"github.com/cognitive-sim/compass/internal/cocomac"
)

// fig3Cores is the core budget of the paper's Figure 3 allocation map,
// the cocomac command's scale when -cocomac-cores is not given.
const fig3Cores = 4096

// cocomacCmd generates and inspects the synthetic CoCoMac macaque
// network of §V of the paper: 102 reduced regions (77 reporting
// connections), Paxinos-style volumes with median imputation, and the
// balanced connection matrix. With -spec it emits a CoreObject
// description ready for the compiler.
func cocomacCmd(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("cocomac", flag.ContinueOnError)
	var m modelFlags
	m.registerCoCoMac(fs)
	stats := fs.Bool("stats", false, "print network statistics (the default when nothing else is asked for)")
	balance := fs.Bool("balance", false, "print matrix balancing diagnostics")
	alloc := fs.Bool("alloc", false, "print the region allocation table (Paxinos vs balanced cores) at -cocomac-cores")
	spec := fs.Bool("spec", false, "emit the CoreObject JSON description at -cocomac-cores on stdout")
	if err := parse(fs, args); err != nil {
		return err
	}
	cores := m.cocomacCores
	if cores == 0 {
		cores = fig3Cores
	}
	net := cocomac.Generate(m.seed)

	if *stats || !(*balance || *alloc || *spec) {
		fmt.Fprintf(w, "synthetic CoCoMac network (seed %d)\n", m.seed)
		fmt.Fprintf(w, "  full network: %d regions, %d directed edges\n", cocomac.FullRegions, net.FullEdgeCount())
		fmt.Fprintf(w, "  reduced network: %d regions, %d reporting connections\n", len(net.Regions), cocomac.ConnectedRegions)
		fmt.Fprintf(w, "  reduced edges among connected regions: %d\n", net.ReducedEdgeCount())
		imputed := 0
		byClass := map[cocomac.Class]int{}
		for _, r := range net.Regions {
			byClass[r.Class]++
			if r.VolumeImputed {
				imputed++
			}
		}
		fmt.Fprintf(w, "  classes: %d cortical, %d thalamic, %d basal ganglia\n",
			byClass[cocomac.Cortical], byClass[cocomac.Thalamic], byClass[cocomac.BasalGanglia])
		fmt.Fprintf(w, "  volumes imputed with class medians: %d (paper: 5 cortical + 8 thalamic)\n", imputed)
	}

	if *balance {
		res, err := net.BalancedMatrix()
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "balancing: converged in %d IPFP sweeps, residual %.2g\n", res.Iterations, res.Residual)
	}

	if *alloc {
		rows, err := net.CoreAllocations(cores)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "region allocations for a %d-core model:\n", cores)
		fmt.Fprintf(w, "%-6s  %-13s  %8s  %8s  %4s\n", "region", "class", "paxinos", "balanced", "deg")
		for _, r := range rows {
			fmt.Fprintf(w, "%-6s  %-13s  %8d  %8d  %4d\n", r.Name, r.Class.String(), r.PaxinosCores, r.BalancedCores, r.OutDegree)
		}
	}

	if *spec {
		s, err := net.ToSpec(cores, uint64(m.ticks))
		if err != nil {
			return err
		}
		return s.Encode(w)
	}
	return nil
}
