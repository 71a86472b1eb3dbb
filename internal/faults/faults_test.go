package faults

import (
	"errors"
	"strings"
	"testing"
	"time"
)

func TestParseGrammar(t *testing.T) {
	cases := []struct {
		spec string
		ok   bool
	}{
		{"drop", true},
		{"dup", true},
		{"delay:k=3", true},
		{"stall:rank=1,k=2", true},
		{"crash:rank=1,tick=5", true},
		{"drop;dup;delay:k=1", true},
		{"drop:p=0.25", true},
		{"drop:attempts=9", true},
		{" drop ; dup ", true},
		{"", false},
		{";", false},
		{"explode", false},
		{"drop:bogus=1", false},
		{"drop:p=1.5", false},
		{"drop:attempts=0", false},
		{"delay:k=0", false},
		{"drop:rank", false},
		{"crash:dest=1", false},
		{"stall:dest=2", false},
		{"stall:rank=0,k=40", true},
		{"drop:rank=-1,tick=-1,dest=-1", true},
	}
	for _, tc := range cases {
		_, err := Parse(tc.spec, 1)
		if tc.ok && err != nil {
			t.Errorf("Parse(%q): unexpected error %v", tc.spec, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("Parse(%q): accepted", tc.spec)
		}
	}
}

// TestParseRejectsMisreadSpecs: each spec here would parse into a rule
// that silently never fires or sleeps for hours; the error must name
// the option at fault.
func TestParseRejectsMisreadSpecs(t *testing.T) {
	for spec, option := range map[string]string{
		"drop:p=NaN":                  "p=NaN",
		"stall:k=10000000":            "k=10000000",
		"stall:k=9223372036854775807": "k=9223372036854775807",
		"delay:k=1001":                "k=1001",
		"crash:rank=-7":               "rank=-7",
		"crash:tick=-2":               "tick=-2",
		"drop:dest=-3":                "dest=-3",
	} {
		_, err := Parse(spec, 1)
		if err == nil || !strings.Contains(err.Error(), option) {
			t.Errorf("Parse(%q) = %v, want an error naming %s", spec, err, option)
		}
	}
	if _, err := New(1, Rule{Class: Stall, Rank: Any, Tick: Any, Dest: Any, K: MaxK + 1}); err == nil {
		t.Error("New accepted a rule with K above MaxK")
	}
}

// FuzzParseFaults: a -faults spec also arrives over HTTP, in a create
// request. Whatever Parse accepts must hold validated rules only, and
// no firing may hold a message or stall a rank for more than MaxK delay
// quanta, or for a negative time.
func FuzzParseFaults(f *testing.F) {
	for _, spec := range []string{
		"drop", "dup;delay:k=3", "stall:rank=0,k=40", "crash:rank=1,tick=50",
		"drop:rank=1,p=0.5;crash:rank=2,tick=100", "drop:attempts=9",
		"drop:p=NaN", "stall:k=9223372036854775807", "crash:rank=-7",
	} {
		f.Add(spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		in, err := Parse(spec, 1)
		if err != nil {
			return
		}
		bound := MaxK * in.quantum()
		for _, r := range in.rules {
			if err := r.validate(); err != nil {
				t.Fatalf("Parse(%q) accepted an invalid rule: %v", spec, err)
			}
			// Probe each rule at its own selector, wildcards at 0.
			rank, tick, dest := max(r.Rank, 0), uint64(max(r.Tick, 0)), max(r.Dest, 0)
			if d := in.Stall(rank, tick); d < 0 || d > bound {
				t.Fatalf("Parse(%q): stall of %v", spec, d)
			}
			for attempt := 0; attempt < in.SendAttempts(); attempt++ {
				if _, d := in.Send(rank, tick, dest, attempt); d < 0 || d > bound {
					t.Fatalf("Parse(%q): message held %v", spec, d)
				}
			}
		}
	})
}

func TestNilAndEmptyInjectorInert(t *testing.T) {
	var nilInj *Injector
	for _, in := range []*Injector{nilInj, {}} {
		if in.Active() {
			t.Fatal("inert injector reports active")
		}
		if act, _ := in.Send(0, 0, 1, 0); act != ActNone {
			t.Fatalf("inert injector returned action %v", act)
		}
		if in.Stall(0, 0) != 0 {
			t.Fatal("inert injector stalls")
		}
		if in.Crash(0, 0) != nil {
			t.Fatal("inert injector crashes")
		}
		if s := in.Summary(); s != (Summary{}) {
			t.Fatalf("inert injector counted %+v", s)
		}
	}
}

func TestDeterministicDropRetriesThenPasses(t *testing.T) {
	in, err := Parse("drop:attempts=2", 1)
	if err != nil {
		t.Fatal(err)
	}
	for attempt, want := range []Action{ActDrop, ActDrop, ActNone} {
		act, _ := in.Send(0, 3, 1, attempt)
		if act != want {
			t.Fatalf("attempt %d: action %v, want %v", attempt, act, want)
		}
	}
	sum := in.Summary()
	if sum.Injected[Drop] != 2 {
		t.Fatalf("drop count %d, want 2", sum.Injected[Drop])
	}
	if sum.Retries != 2 {
		t.Fatalf("retry count %d, want 2 (attempts 1 and 2)", sum.Retries)
	}
}

func TestSelectorsScopeTheFault(t *testing.T) {
	in, err := Parse("crash:rank=1,tick=5", 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := in.Crash(0, 5); err != nil {
		t.Fatalf("crash fired on wrong rank: %v", err)
	}
	if err := in.Crash(1, 4); err != nil {
		t.Fatalf("crash fired on wrong tick: %v", err)
	}
	err = in.Crash(1, 5)
	var crash *CrashError
	if !errors.As(err, &crash) || crash.Rank != 1 || crash.Tick != 5 {
		t.Fatalf("crash at rank 1 tick 5 returned %v", err)
	}
	if !strings.Contains(err.Error(), "rank 1") || !strings.Contains(err.Error(), "tick 5") {
		t.Fatalf("crash error does not name rank and tick: %v", err)
	}
}

func TestDelayAndStallScaleWithK(t *testing.T) {
	in, err := Parse("delay:k=3;stall:rank=2,k=4", 1)
	if err != nil {
		t.Fatal(err)
	}
	in.DelayQuantum = time.Millisecond
	act, d := in.Send(0, 0, 1, 0)
	if act != ActDelay || d != 3*time.Millisecond {
		t.Fatalf("delay verdict %v/%v, want ActDelay/3ms", act, d)
	}
	if d := in.Stall(2, 7); d != 4*time.Millisecond {
		t.Fatalf("stall %v, want 4ms", d)
	}
	if d := in.Stall(0, 7); d != 0 {
		t.Fatalf("stall fired on unselected rank: %v", d)
	}
}

func TestDuplicateDecidesOncePerMessage(t *testing.T) {
	// A retried send must get the same duplicate verdict as the first
	// attempt: the decision hashes attempt 0 regardless of the retry
	// counter, so a drop-then-retry sequence cannot double-fire dup.
	in, err := Parse("dup:p=0.5", 42)
	if err != nil {
		t.Fatal(err)
	}
	for tick := uint64(0); tick < 50; tick++ {
		first, _ := in.Send(1, tick, 2, 0)
		retry, _ := in.Send(1, tick, 2, 3)
		if first != retry {
			t.Fatalf("tick %d: attempt 0 says %v, attempt 3 says %v", tick, first, retry)
		}
	}
}

func TestProbabilisticDecisionsDeterministicPerSeed(t *testing.T) {
	verdicts := func(seed uint64) []Action {
		in, err := Parse("drop:p=0.3", seed)
		if err != nil {
			t.Fatal(err)
		}
		var out []Action
		for tick := uint64(0); tick < 200; tick++ {
			act, _ := in.Send(0, tick, 1, 0)
			out = append(out, act)
		}
		return out
	}
	a, b := verdicts(7), verdicts(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at decision %d", i)
		}
	}
	c := verdicts(8)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("200 decisions identical across different seeds")
	}
	var fired int
	for _, act := range a {
		if act == ActDrop {
			fired++
		}
	}
	// 200 Bernoulli(0.3) trials: expect 60, allow a wide band.
	if fired < 30 || fired > 95 {
		t.Fatalf("p=0.3 fired %d/200 times", fired)
	}
}

func TestSummaryCountsDedups(t *testing.T) {
	in, err := Parse("dup", 1)
	if err != nil {
		t.Fatal(err)
	}
	in.Dedup(3)
	in.Dedup(0)
	if got := in.Summary().Dedups; got != 3 {
		t.Fatalf("dedups %d, want 3", got)
	}
}
