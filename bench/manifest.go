package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// manifest is BENCHMARK.json: the one list of workload and metric
// names, units, directions and regression bounds. The program emits
// what it lists and -compare judges by its bounds, so nothing about a
// metric is declared twice.
type manifest struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []metricDef   `json:"end_to_end"`
	PerLayer   []metricDef   `json:"per_layer"`
}

type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
	// Bound is the share of the base median by which an end-to-end
	// metric may get worse before a change counts as a regression.
	Bound float64 `json:"bound,omitempty"`
}

func loadManifest(path string) (*manifest, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var mf manifest
	if err := json.Unmarshal(raw, &mf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &mf, nil
}

// has reports whether the manifest lists a metric of that name.
func (mf *manifest) has(name string) bool {
	for _, defs := range [][]metricDef{mf.EndToEnd, mf.PerLayer} {
		for _, d := range defs {
			if d.Name == name {
				return true
			}
		}
	}
	return false
}
