package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"time"

	"github.com/cognitive-sim/compass/internal/scenario"
)

// goldenSeed is the default -seed, the one golden.json pins counts for.
// Other seeds are checked as thoroughly against references computed in
// the run itself; the golden file adds that those references have not
// drifted from one commit to the next.
const goldenSeed = 2012

//go:embed golden.json
var goldenJSON []byte

// goldenFile pins, for goldenSeed at full size, every count that
// repeats exactly.
type goldenFile struct {
	Seed uint64 `json:"seed"`
	// Engine is keyed by workload name.
	Engine map[string]windowRef `json:"engine"`
	// Bandit is keyed by the bandit session's seed, in decimal. Both loop
	// workloads drive the same sessions, so they share the entries.
	Bandit map[string]sessionRef `json:"bandit"`
}

// sessionRef is what every bandit session of one seed must reproduce.
type sessionRef struct {
	InjectHash     string         `json:"inject_hash"`
	Score          scenario.Score `json:"score"`
	Spikes         uint64         `json:"spikes"`
	SynapticEvents uint64         `json:"synaptic_events"`
}

func loadGolden() (*goldenFile, error) {
	var g goldenFile
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	if g.Seed != goldenSeed {
		return nil, fmt.Errorf("golden.json pins seed %d, the default seed is %d", g.Seed, goldenSeed)
	}
	return &g, nil
}

// pin checks (or, when regenerating, records) one reference against
// the golden table it belongs to; a mismatch is a failed operation.
func pin[T any](r *run, table map[string]T, key string, ref T) {
	switch {
	case r.recordGolden:
		table[key] = ref
	case r.checkGolden:
		var err error
		if want, ok := table[key]; !ok {
			err = fmt.Errorf("golden.json has no entry for %s", key)
		} else if !reflect.DeepEqual(ref, want) {
			err = fmt.Errorf("golden mismatch for %s: got %+v, pinned %+v", key, ref, want)
		}
		r.op(err)
	}
}

// regenerateGolden measures every workload briefly at the default seed
// and writes the references the runs derived.
func regenerateGolden(mf *manifest, path, outDir string) error {
	g := &goldenFile{Seed: goldenSeed, Engine: map[string]windowRef{}, Bandit: map[string]sessionRef{}}
	for _, w := range mf.Workloads {
		r := &run{
			workload: w.Name, seed: goldenSeed, seconds: 500 * time.Millisecond,
			size: fullSize, outDir: outDir, golden: g, recordGolden: true,
		}
		line, err := measure(mf, r)
		if err != nil {
			return err
		}
		if !line.Correct {
			return fmt.Errorf("%s: %d of %d operations failed; not pinning a wrong run", w.Name, line.Failed, line.Attempted)
		}
	}
	raw, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}
