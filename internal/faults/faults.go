// Package faults is the deterministic fault-injection layer behind the
// simulator's transport stack. An Injector holds a seeded rule list; the
// transport backends consult it at their send and drain points (message
// drop, duplication, delay) and at Exchange entry (rank stall, rank
// crash). Every decision is a pure function of (seed, class, rank, tick,
// dest, attempt), so a faulted run is reproducible regardless of
// goroutine scheduling and identical across the MPI, PGAS, and shmem
// transports — which all publish the same per-tick message multiset.
//
// Fault classes split into two families:
//
//   - Survivable (drop, dup, delay, stall): the transport absorbs them —
//     dropped sends are retried with backoff, duplicates are deduplicated
//     under the one-aggregated-message-per-(src,dst,tick) contract, and
//     delays/stalls are wall-clock only — so spike output stays
//     bit-identical to the fault-free run.
//   - Fatal (crash, or a drop that outlives the retry budget): the rank
//     returns an error naming itself and the tick, and the transport's
//     abort broadcast unblocks every peer so the run fails cleanly
//     instead of hanging.
package faults

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// Class is one injectable fault kind.
type Class uint8

const (
	// Drop discards an outgoing message; the sender retries with
	// backoff and fails the rank when the retry budget is exhausted.
	Drop Class = iota
	// Duplicate publishes an outgoing message twice; the receiver
	// deduplicates by source within the tick.
	Duplicate
	// Delay holds an outgoing message for K delay quanta of wall-clock
	// before publishing it within the same tick's Exchange.
	Delay
	// Stall sleeps the rank for K delay quanta at Exchange entry.
	Stall
	// Crash fails the rank at Exchange entry with an error naming the
	// rank and tick.
	Crash
	// NumClasses bounds per-class arrays.
	NumClasses
)

// String names the class as it appears in the spec grammar and metric
// labels.
func (c Class) String() string {
	switch c {
	case Drop:
		return "drop"
	case Duplicate:
		return "dup"
	case Delay:
		return "delay"
	case Stall:
		return "stall"
	case Crash:
		return "crash"
	default:
		return "unknown"
	}
}

// Classes lists every fault class, in spec-grammar order.
func Classes() []Class {
	return []Class{Drop, Duplicate, Delay, Stall, Crash}
}

// Action is the injector's verdict on one outgoing message attempt.
type Action uint8

const (
	// ActNone publishes the message normally.
	ActNone Action = iota
	// ActDrop discards this attempt; the sender should retry.
	ActDrop
	// ActDuplicate publishes the message twice.
	ActDuplicate
	// ActDelay publishes the message after the returned wall-clock hold.
	ActDelay
)

// Any matches every rank, tick, or destination in a Rule selector.
const Any = -1

// MaxK bounds a rule's K: one firing holds a message or stalls a rank
// (uninterruptibly) for at most MaxK delay quanta, half a second at the
// default quantum, and the hold cannot overflow.
const MaxK = 1000

// Rule arms one fault class at a set of decision points. Selector fields
// use Any (-1) as a wildcard; Parse defaults every selector to Any, so
// hand-built Rule literals must set them explicitly.
type Rule struct {
	Class Class
	// Rank selects the faulting rank; Tick the tick it fires at; Dest
	// the message destination (send classes only).
	Rank int
	Tick int64
	Dest int
	// K scales the fault: delay quanta for Delay and Stall, at most
	// MaxK. Values < 1 are treated as 1.
	K int
	// Attempts is how many leading send attempts a deterministic Drop
	// rule discards (default 1: the first send drops, the retry
	// succeeds). A value at or past the injector's attempt budget makes
	// the drop fatal. Ignored when P is set.
	Attempts int
	// P, when non-zero, makes the rule probabilistic: each matching
	// decision point fires independently with probability P, decided by
	// a seeded hash so runs stay reproducible.
	P float64
}

// validate rejects selector and parameter combinations the matcher would
// silently misread.
func (r Rule) validate() error {
	if r.Class >= NumClasses {
		return fmt.Errorf("faults: unknown class %d", r.Class)
	}
	if !(r.P >= 0 && r.P <= 1) { // NaN fails both
		return fmt.Errorf("faults: %s p=%v outside [0, 1]", r.Class, r.P)
	}
	if r.K > MaxK {
		return fmt.Errorf("faults: %s k=%d exceeds %d", r.Class, r.K, MaxK)
	}
	sel := [...]int64{int64(r.Rank), r.Tick, int64(r.Dest)}
	for i, key := range [...]string{"rank", "tick", "dest"} {
		if sel[i] < Any {
			return fmt.Errorf("faults: %s %s=%d must be >= 0 (or %d for any)", r.Class, key, sel[i], Any)
		}
	}
	if (r.Class == Stall || r.Class == Crash) && r.Dest != Any && r.Dest != 0 {
		return fmt.Errorf("faults: %s is rank-scoped; dest selector not allowed", r.Class)
	}
	return nil
}

// ErrDropped marks a message drop that outlived the sender's retry
// budget; transports wrap it with the rank, destination, and tick.
var ErrDropped = errors.New("faults: message dropped past retry budget")

// CrashError is the error an injected rank crash returns.
type CrashError struct {
	Rank int
	Tick uint64
}

func (e *CrashError) Error() string {
	return fmt.Sprintf("faults: injected crash at rank %d, tick %d", e.Rank, e.Tick)
}

// Summary is the injector's cumulative activity, for CLI reporting and
// tests. Telemetry mirrors these as compass_fault* metrics.
type Summary struct {
	// Injected counts fired decisions per class.
	Injected [NumClasses]uint64
	// Retries counts send re-attempts after an injected drop.
	Retries uint64
	// Dedups counts duplicate messages discarded at receivers.
	Dedups uint64
}

// Injector decides fault injection for one run. The zero value and nil
// are both inert; build real injectors with New or Parse. All methods
// are safe for concurrent use from every rank.
type Injector struct {
	// Seed keys every probabilistic decision.
	Seed uint64
	// MaxSendAttempts is the per-message send budget (first try plus
	// retries) before a persistent drop fails the rank. Values < 1 mean
	// the default of 4.
	MaxSendAttempts int
	// DelayQuantum is the wall-clock length of one simulated tick of
	// injected delay or stall. Values <= 0 mean the default of 500 µs.
	DelayQuantum time.Duration

	rules []Rule

	injected [NumClasses]atomic.Uint64
	retries  atomic.Uint64
	dedups   atomic.Uint64
}

// New builds an injector from explicit rules. Rule selector fields use
// Any (-1) as the wildcard.
func New(seed uint64, rules ...Rule) (*Injector, error) {
	for _, r := range rules {
		if err := r.validate(); err != nil {
			return nil, err
		}
	}
	return &Injector{Seed: seed, rules: rules}, nil
}

// Active reports whether the injector can fire at all. Nil-safe.
func (in *Injector) Active() bool {
	return in != nil && len(in.rules) > 0
}

// Rules returns a copy of the injector's rules. Nil-safe.
func (in *Injector) Rules() []Rule {
	if in == nil {
		return nil
	}
	return append([]Rule(nil), in.rules...)
}

// SendAttempts is the per-message send budget, defaults applied.
func (in *Injector) SendAttempts() int {
	if in == nil || in.MaxSendAttempts < 1 {
		return 4
	}
	return in.MaxSendAttempts
}

// quantum is the wall-clock unit of injected delay, defaults applied.
func (in *Injector) quantum() time.Duration {
	if in.DelayQuantum <= 0 {
		return 500 * time.Microsecond
	}
	return in.DelayQuantum
}

// Summary returns the injector's cumulative counters. Nil-safe.
func (in *Injector) Summary() Summary {
	var s Summary
	if in == nil {
		return s
	}
	for c := range s.Injected {
		s.Injected[c] = in.injected[c].Load()
	}
	s.Retries = in.retries.Load()
	s.Dedups = in.dedups.Load()
	return s
}

// Dedup records n duplicate messages discarded by a receiver. Nil-safe.
func (in *Injector) Dedup(n uint64) {
	if in == nil || n == 0 {
		return
	}
	in.dedups.Add(n)
}

// Send decides the fate of one outgoing message: rank's aggregated
// payload for dest at tick t, on its attempt-th send try (0 = first).
// The returned duration is the wall-clock hold for ActDelay. Nil-safe.
func (in *Injector) Send(rank int, t uint64, dest, attempt int) (Action, time.Duration) {
	if !in.Active() {
		return ActNone, 0
	}
	if attempt > 0 {
		in.retries.Add(1)
	}
	for _, r := range in.rules {
		if !r.matches(rank, t, dest) {
			continue
		}
		switch r.Class {
		case Drop:
			if in.fires(r, rank, t, dest, attempt, func() bool {
				return attempt < maxi(r.Attempts, 1)
			}) {
				in.injected[Drop].Add(1)
				return ActDrop, 0
			}
		case Duplicate:
			// Duplication decides once per message, not per attempt, so
			// a retried send cannot double-fire the rule.
			if in.fires(r, rank, t, dest, 0, func() bool { return true }) {
				in.injected[Duplicate].Add(1)
				return ActDuplicate, 0
			}
		case Delay:
			if in.fires(r, rank, t, dest, 0, func() bool { return true }) {
				in.injected[Delay].Add(1)
				return ActDelay, time.Duration(maxi(r.K, 1)) * in.quantum()
			}
		}
	}
	return ActNone, 0
}

// Stall returns how long rank must sleep at the top of tick t's Exchange
// (zero when no stall rule fires). Nil-safe.
func (in *Injector) Stall(rank int, t uint64) time.Duration {
	if !in.Active() {
		return 0
	}
	for _, r := range in.rules {
		if r.Class != Stall || !r.matches(rank, t, Any) {
			continue
		}
		if in.fires(r, rank, t, Any, 0, func() bool { return true }) {
			in.injected[Stall].Add(1)
			return time.Duration(maxi(r.K, 1)) * in.quantum()
		}
	}
	return 0
}

// Crash returns a non-nil *CrashError when rank must fail at tick t.
// Nil-safe.
func (in *Injector) Crash(rank int, t uint64) error {
	if !in.Active() {
		return nil
	}
	for _, r := range in.rules {
		if r.Class != Crash || !r.matches(rank, t, Any) {
			continue
		}
		if in.fires(r, rank, t, Any, 0, func() bool { return true }) {
			in.injected[Crash].Add(1)
			return &CrashError{Rank: rank, Tick: t}
		}
	}
	return nil
}

// matches applies the rule's selector to one decision point.
func (r Rule) matches(rank int, t uint64, dest int) bool {
	if r.Rank != Any && r.Rank != rank {
		return false
	}
	if r.Tick != Any && (r.Tick < 0 || uint64(r.Tick) != t) {
		return false
	}
	if r.Dest != Any && r.Dest != dest {
		return false
	}
	return true
}

// fires resolves a matched rule: deterministic rules delegate to det;
// probabilistic rules hash the decision point against P.
func (in *Injector) fires(r Rule, rank int, t uint64, dest, attempt int, det func() bool) bool {
	if r.P == 0 {
		return det()
	}
	h := in.Seed
	h = mix(h, uint64(r.Class)+1)
	h = mix(h, uint64(rank)+1)
	h = mix(h, t+1)
	h = mix(h, uint64(int64(dest))+2)
	h = mix(h, uint64(attempt)+1)
	return float64(h>>11)/(1<<53) < r.P
}

// mix folds v into h with the splitmix64 finalizer, giving a uniform,
// scheduling-independent decision hash.
func mix(h, v uint64) uint64 {
	h ^= v + 0x9E3779B97F4A7C15 + (h << 6) + (h >> 2)
	h += 0x9E3779B97F4A7C15
	h = (h ^ (h >> 30)) * 0xBF58476D1CE4E5B9
	h = (h ^ (h >> 27)) * 0x94D049BB133111EB
	return h ^ (h >> 31)
}

func maxi(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Parse builds an injector from the -faults spec grammar:
//
//	spec  := rule (';' rule)*
//	rule  := class [':' kv (',' kv)*]
//	class := drop | dup | delay | stall | crash
//	kv    := rank=N | tick=N | dest=N | k=N | attempts=N | p=F
//
// Selectors default to wildcards, so "drop" alone drops the first send
// attempt of every message (each is retried and the run completes
// bit-identically), while "crash:rank=1,tick=5" fails rank 1 at tick 5.
func Parse(spec string, seed uint64) (*Injector, error) {
	var rules []Rule
	for _, rs := range strings.Split(spec, ";") {
		rs = strings.TrimSpace(rs)
		if rs == "" {
			continue
		}
		head, rest, _ := strings.Cut(rs, ":")
		rule := Rule{Rank: Any, Tick: Any, Dest: Any, K: 1, Attempts: 1}
		switch strings.TrimSpace(head) {
		case "drop":
			rule.Class = Drop
		case "dup":
			rule.Class = Duplicate
		case "delay":
			rule.Class = Delay
		case "stall":
			rule.Class = Stall
		case "crash":
			rule.Class = Crash
		default:
			return nil, fmt.Errorf("faults: unknown class %q (want drop, dup, delay, stall, or crash)", head)
		}
		if rest != "" {
			for _, kv := range strings.Split(rest, ",") {
				key, val, ok := strings.Cut(strings.TrimSpace(kv), "=")
				if !ok {
					return nil, fmt.Errorf("faults: malformed option %q in rule %q", kv, rs)
				}
				if err := rule.setOption(strings.TrimSpace(key), strings.TrimSpace(val)); err != nil {
					return nil, err
				}
			}
		}
		if err := rule.validate(); err != nil {
			return nil, err
		}
		rules = append(rules, rule)
	}
	if len(rules) == 0 {
		return nil, fmt.Errorf("faults: empty spec %q", spec)
	}
	return New(seed, rules...)
}

// setOption applies one key=value pair of the spec grammar to the rule.
func (r *Rule) setOption(key, val string) error {
	switch key {
	case "rank", "tick", "dest", "k", "attempts":
		n, err := strconv.ParseInt(val, 10, 64)
		if err != nil {
			return fmt.Errorf("faults: %s=%q is not an integer", key, val)
		}
		switch key {
		case "rank":
			r.Rank = int(n)
		case "tick":
			r.Tick = n
		case "dest":
			r.Dest = int(n)
		case "k":
			if n < 1 {
				return fmt.Errorf("faults: k=%d must be >= 1", n)
			}
			r.K = int(n)
		case "attempts":
			if n < 1 {
				return fmt.Errorf("faults: attempts=%d must be >= 1", n)
			}
			r.Attempts = int(n)
		}
	case "p":
		p, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return fmt.Errorf("faults: p=%q is not a number", val)
		}
		r.P = p
	default:
		return fmt.Errorf("faults: unknown option %q (want rank, tick, dest, k, attempts, or p)", key)
	}
	return nil
}
