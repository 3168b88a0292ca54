package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// benchFile is BENCHMARK.json at the repository root, read from the
// working directory: it is the one list of the benchmark's workloads and
// metrics, with each metric's unit and each end-to-end metric's bound.
const benchFile = "BENCHMARK.json"

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

// loadSpec reads BENCHMARK.json and checks that every workload it names
// is one this benchmark has.
func loadSpec() (*benchSpec, error) {
	raw, err := os.ReadFile(benchFile)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", benchFile, err)
	}
	for _, w := range s.Workloads {
		if workloads[w.Name] == nil {
			return nil, fmt.Errorf("%s names workload %q, which the benchmark does not have", benchFile, w.Name)
		}
	}
	return &s, nil
}
