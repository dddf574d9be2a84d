package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// specFile is the benchmark's contract, at the root of the checkout the
// benchmark runs from. It is the only place metric names, units, directions
// and bounds are written down: the program looks units up in it, refuses to
// emit a name it does not declare, and -compare reads its bounds.
const specFile = "BENCHMARK.json"

// spec mirrors BENCHMARK.json.
type spec struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []metricSpec   `json:"end_to_end"`
	PerLayer   []metricSpec   `json:"per_layer"`
}

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricSpec struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
	// Bound is the share of the parent's median an end-to-end metric may
	// worsen by before it counts as a regression; per-layer metrics have
	// none.
	Bound float64 `json:"bound,omitempty"`
}

func loadSpec(path string) (*spec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// metrics returns the metric set one run prints: every end-to-end metric
// with tracing off, every per-layer metric with it on.
func (s *spec) metrics(trace bool) []metricSpec {
	if trace {
		return s.PerLayer
	}
	return s.EndToEnd
}

func (s *spec) hasWorkload(name string) bool {
	for _, w := range s.Workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}

// Workload names. They are final: later issues cite them.
const (
	wlKernelSweep   = "kernel-sweep"
	wlServeSmall    = "serve-small"
	wlServeHeavy    = "serve-heavy"
	wlServeMutate   = "serve-mutate"
	wlClusterRouted = "cluster-routed"
)
