package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
)

// metricSpec is one metric of BENCHMARK.json. Per-layer metrics carry no
// bound.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// spec is BENCHMARK.json: the one place metric names, units, directions,
// bounds and workload names are written down. The program reads it at run
// time and refuses to report a metric it does not name, or to omit one it
// does, so the file and the code cannot drift apart.
type spec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`

	// root is the directory BENCHMARK.json was found in.
	root string
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// loadSpec finds BENCHMARK.json in the working directory or a parent of it
// (`go run ./benchmark` runs at the root, `go test` inside benchmark/).
func loadSpec() (*spec, error) {
	dir, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	for {
		raw, err := os.ReadFile(filepath.Join(dir, "BENCHMARK.json"))
		if err == nil {
			s := &spec{root: dir}
			if err := json.Unmarshal(raw, s); err != nil {
				return nil, fmt.Errorf("BENCHMARK.json: %w", err)
			}
			return s, s.validate()
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return nil, fmt.Errorf("BENCHMARK.json not found in the working directory or any parent")
		}
		dir = parent
	}
}

func (s *spec) validate() error {
	seen := map[string]bool{}
	check := func(kind, name string) error {
		if !nameRE.MatchString(name) {
			return fmt.Errorf("BENCHMARK.json: %s name %q is not [A-Za-z0-9_.-]+", kind, name)
		}
		if seen[name] {
			return fmt.Errorf("BENCHMARK.json: name %q is used twice", name)
		}
		seen[name] = true
		return nil
	}
	for _, w := range s.Workloads {
		if err := check("workload", w.Name); err != nil {
			return err
		}
	}
	for _, m := range append(append([]metricSpec(nil), s.EndToEnd...), s.PerLayer...) {
		if err := check("metric", m.Name); err != nil {
			return err
		}
		if m.Better != "lower" && m.Better != "higher" {
			return fmt.Errorf("BENCHMARK.json: metric %q: better is %q", m.Name, m.Better)
		}
	}
	return nil
}

// outDir is where traces and results are written: benchmark/out under the
// root, which git ignores.
func (s *spec) outDir() string { return filepath.Join(s.root, "benchmark", "out") }

// metricValue is one reported number with its unit.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// label turns measured values into the reported form for the given specs
// and fails on any name the two sides do not share.
func label(specs []metricSpec, values map[string]float64) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(specs))
	for _, m := range specs {
		v, ok := values[m.Name]
		if !ok {
			return nil, fmt.Errorf("metric %q is in BENCHMARK.json but was not measured", m.Name)
		}
		out[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	for name := range values {
		if _, ok := out[name]; !ok {
			return nil, fmt.Errorf("metric %q was measured but is not in BENCHMARK.json", name)
		}
	}
	return out, nil
}
