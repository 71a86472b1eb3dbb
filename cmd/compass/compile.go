package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"github.com/cognitive-sim/compass/internal/coreobject"
	"github.com/cognitive-sim/compass/internal/pcc"
)

// compileCmd runs the Parallel Compass Compiler alone: it expands the
// selected CoreObject description into an explicit model, reports the
// compilation, and with -out writes the explicit binary model that a
// run reads with -model.
func compileCmd(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("compile", flag.ContinueOnError)
	var m modelFlags
	m.register(fs)
	outPath := fs.String("out", "", "write the explicit binary model here")
	if err := parse(fs, args); err != nil {
		return err
	}
	if m.modelPath != "" || m.compileCache != "" {
		return errors.New("compile takes -spec or -cocomac-cores, not -model or -compile-cache")
	}
	spec, err := m.loadSpec()
	if err != nil {
		return err
	}

	start := time.Now()
	res, err := pcc.Compile(spec, m.ranks)
	if err != nil {
		return err
	}
	compileTime := time.Since(start)
	model := res.Model
	fmt.Fprintf(w, "compiled %q: %d cores, %d neurons, %d synapses on %d ranks in %v\n",
		spec.Name, model.NumCores(), model.NumNeurons(), model.NumSynapses(), res.Ranks, compileTime.Round(time.Millisecond))
	fmt.Fprintf(w, "balancing: %d IPFP sweeps; negotiation: %d grant messages, %.2f MB\n",
		res.BalanceIterations, res.GrantMessages, float64(res.GrantBytes)/1e6)
	wired := 0
	for _, cfg := range model.Cores {
		for j := range cfg.Neurons {
			if cfg.Neurons[j].Enabled {
				wired++
			}
		}
	}
	fmt.Fprintf(w, "wired neurons: %d of %d (%.1f%%); %d input spikes generated\n",
		wired, model.NumNeurons(), 100*float64(wired)/float64(model.NumNeurons()), len(model.Inputs))
	if *outPath == "" {
		return nil
	}

	t0 := time.Now()
	err = createFile(*outPath, func(f *os.File) error {
		if err := coreobject.WriteModel(f, model); err != nil {
			return err
		}
		return f.Sync()
	})
	writeTime := time.Since(t0)
	if err != nil {
		return err
	}
	fi, err := os.Stat(*outPath)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "explicit model: %.2f MB written to %s in %v\n", float64(fi.Size())/1e6, *outPath, writeTime.Round(time.Millisecond))
	return nil
}
