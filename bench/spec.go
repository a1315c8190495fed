package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// metricSpec declares one metric in BENCHMARK.json.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// spec is BENCHMARK.json, the declaration of the benchmark's command,
// workloads and metrics. The program reports exactly the metrics it
// declares.
type spec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadSpec(path string) (*spec, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var s spec
	dec := json.NewDecoder(f)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// reported is one metric value with its declared unit.
type reported struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report pairs values with their declared units. It fails unless values
// holds exactly the declared metrics: the end-to-end metrics, or the
// per-layer metrics of a traced run.
func (s *spec) report(values map[string]float64, trace bool) (map[string]reported, error) {
	declared := s.EndToEnd
	if trace {
		declared = s.PerLayer
	}
	out := map[string]reported{}
	var missing, extra []string
	for _, m := range declared {
		v, ok := values[m.Name]
		if !ok {
			missing = append(missing, m.Name)
			continue
		}
		out[m.Name] = reported{v, m.Unit}
	}
	for name := range values {
		if _, ok := out[name]; !ok {
			extra = append(extra, name)
		}
	}
	if len(missing)+len(extra) > 0 {
		sort.Strings(missing)
		sort.Strings(extra)
		return nil, fmt.Errorf("metrics do not match BENCHMARK.json: missing %v, undeclared %v", missing, extra)
	}
	return out, nil
}
