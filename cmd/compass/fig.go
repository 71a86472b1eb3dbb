package main

import (
	"flag"
	"fmt"
	"io"

	"github.com/cognitive-sim/compass/internal/experiments"
)

// figCmd regenerates the tables and figures of the paper's evaluation:
// every experiment, or the one whose ID is the argument, as aligned
// text (default), markdown or CSV.
func figCmd(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("fig", flag.ContinueOnError)
	markdown := fs.Bool("markdown", false, "emit markdown tables (the EXPERIMENTS.md body)")
	csvOut := fs.Bool("csv", false, "emit CSV tables for plotting")
	list := fs.Bool("list", false, "list the experiment IDs")
	if err := fs.Parse(args); err != nil {
		return err
	}
	// The experiment ID may stand before the flags or after them.
	id := fs.Arg(0)
	if id != "" {
		if err := parse(fs, fs.Args()[1:]); err != nil {
			return err
		}
	}
	if *list {
		for _, e := range experiments.All() {
			fmt.Fprintf(w, "%-10s %s\n", e.ID, e.Name)
		}
		return nil
	}
	todo := experiments.All()
	if id != "" {
		e, ok := experiments.Lookup(id)
		if !ok {
			return fmt.Errorf("unknown experiment %q (try compass fig -list)", id)
		}
		todo = []experiments.Experiment{e}
	}
	for _, e := range todo {
		tabs, err := e.Run()
		if err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		for _, t := range tabs {
			switch {
			case *markdown:
				err = t.Markdown(w)
			case *csvOut:
				err = t.CSV(w)
			default:
				err = t.Render(w)
			}
			if err != nil {
				return err
			}
		}
	}
	return nil
}
