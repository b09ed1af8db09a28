package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
)

// BENCHMARK.json, at the root of the checkout, is the one place that
// names the benchmark's metrics, their units, the direction in which
// each gets better and the bound by which an end-to-end metric may get
// worse. The harness reads it at run time — bench/run.sh runs from the
// root of a checkout — so the contract line and -compare cannot drift
// from it.
const contractFile = "BENCHMARK.json"

// contract is BENCHMARK.json as the driver reads it.
type contract struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []contractMetric `json:"end_to_end"`
	PerLayer []contractMetric `json:"per_layer"`
}

// contractMetric names one metric. Bound is set on end-to-end metrics
// only: the share of the base's median by which the metric may get
// worse before a change counts as a regression.
type contractMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func loadContract(path string) (*contract, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("%w (run from the root of a checkout)", err)
	}
	var c contract
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&c); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	for _, m := range c.EndToEnd {
		if m.Bound == nil || (m.Better != "higher" && m.Better != "lower") {
			return nil, fmt.Errorf("%s: end-to-end metric %s needs a bound and a direction", path, m.Name)
		}
	}
	return &c, nil
}
