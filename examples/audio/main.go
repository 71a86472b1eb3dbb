// Audio: tone-pattern classification on TrueNorth cores — the paper's
// "audio classification" application family (§I).
//
// The stimulus is a synthetic cochlea output: spikes on 8 frequency
// channels over time. Three sound classes are presented — a rising
// chirp (low→high sweep), a falling chirp (high→low), and a steady
// chord (all channels at once). Each class has a dedicated detector
// built from one coincidence gate whose per-channel input delays
// compensate the class's temporal pattern: a rising chirp activates
// channel k at time k·Δ, so routing channel k through an axonal delay of
// (N−1−k)·Δ makes all eight spikes arrive at the gate in the same tick.
// Detection is therefore pure spike-time geometry — the same trick the
// motion example uses across space, here across frequency.
package main

import (
	"fmt"
	"log"

	"github.com/cognitive-sim/compass/internal/corelets"
	"github.com/cognitive-sim/compass/internal/spikecode"
	"github.com/cognitive-sim/compass/internal/truenorth"
)

const (
	channels = 8
	// delta is the chirp's channel-to-channel delay in ticks.
	delta = 2
	// matchNeed is the coincidence threshold: 6 of 8 channels tolerate
	// noisy or missing components.
	matchNeed = 6
)

type class struct {
	name string
	// onset returns the tick offset at which the class activates
	// channel k.
	onset func(k int) uint64
	// lag returns the compensating axonal delay for channel k (+1 base
	// delay, so lags stay in [1, 15]).
	lag func(k int) uint8
}

func classes() []class {
	return []class{
		{
			name:  "rising chirp",
			onset: func(k int) uint64 { return uint64(k * delta) },
			lag:   func(k int) uint8 { return uint8((channels-1-k)*delta) + 1 },
		},
		{
			name:  "falling chirp",
			onset: func(k int) uint64 { return uint64((channels - 1 - k) * delta) },
			lag:   func(k int) uint8 { return uint8(k*delta) + 1 },
		},
		{
			name:  "steady chord",
			onset: func(int) uint64 { return 0 },
			lag:   func(int) uint8 { return 1 },
		},
	}
}

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	cls := classes()
	b := corelets.NewBuilder(21)

	// Each channel fans out to one branch per detector class.
	chanIn, chanOut, err := b.Splitter(channels, len(cls))
	if err != nil {
		return err
	}

	probes := make([]*corelets.Probe, len(cls))
	for d, c := range cls {
		gateIn, gateOut, err := b.Gate(1, channels, matchNeed)
		if err != nil {
			return err
		}
		for k := 0; k < channels; k++ {
			src := corelets.OutPort{chanOut[d*channels+k]}
			dst := corelets.InPort{gateIn[k]}
			if err := b.Connect(src, dst, c.lag(k)); err != nil {
				return err
			}
		}
		if probes[d], err = b.Probe(gateOut); err != nil {
			return err
		}
	}

	// Presentation schedule: each class once, separated widely enough
	// that delayed spikes cannot bleed between presentations.
	const gap = uint64(channels*delta + 20)
	for i, c := range cls {
		start := uint64(i) * gap
		for k := 0; k < channels; k++ {
			if err := b.Stimulate(chanIn, k, start+c.onset(k)); err != nil {
				return err
			}
		}
	}

	m, err := b.Build()
	if err != nil {
		return err
	}
	fmt.Printf("audio classifier: %d channels, %d classes on %d TrueNorth cores\n\n",
		channels, len(cls), b.NumCores())

	sim, err := truenorth.NewSerialSim(m)
	if err != nil {
		return err
	}
	// Each detector's probe is one output line of the shared decode
	// helpers: collect line events, then score per presentation window.
	var events []spikecode.LineEvent
	sim.OnSpike = func(tick uint64, s truenorth.Spike) {
		for d, p := range probes {
			if _, ok := p.Index(s.Target); ok {
				events = append(events, spikecode.LineEvent{Line: d, Tick: tick})
			}
		}
	}
	totalTicks := int(uint64(len(cls))*gap) + 8
	if err := sim.Run(totalTicks); err != nil {
		return err
	}

	windows := make([]spikecode.Window, len(cls))
	for i := range cls {
		windows[i] = spikecode.Window{Start: uint64(i) * gap, End: uint64(i+1) * gap}
	}
	detections := spikecode.CountWindows(events, len(cls), windows)

	correct := 0
	for i, c := range cls {
		fmt.Printf("presented %-13s ->", c.name)
		for d := range cls {
			fmt.Printf(" %s:%d", shortName(cls[d].name), detections[i][d])
		}
		winner := spikecode.Argmax(detections[i])
		if winner == i {
			fmt.Printf("   classified %q  ok\n", cls[winner].name)
			correct++
		} else {
			fmt.Printf("   MISCLASSIFIED\n")
		}
	}
	if correct != len(cls) {
		return fmt.Errorf("only %d/%d classes recognized", correct, len(cls))
	}
	fmt.Printf("\nall %d sound classes recognized from spike timing alone.\n", correct)
	return nil
}

func shortName(s string) string {
	switch s {
	case "rising chirp":
		return "rise"
	case "falling chirp":
		return "fall"
	default:
		return "chord"
	}
}
