// Command abdhfl-bench runs the repository's tier-1 benchmarks through
// `go test -bench` and writes the parsed results as JSON, so performance
// regressions can be tracked run-over-run (the repository keeps the numbers
// for each optimisation PR in BENCH_<n>.json at the repo root).
//
//	abdhfl-bench                         # Table5 cells + Fig3 + kernels + telemetry tax + 100k-device scale + codecs
//	abdhfl-bench -bench '.' -count 3     # everything, three samples each
//	abdhfl-bench -pkg ./internal/aggregate -bench AggregateRules
//	abdhfl-bench -bench TelemetryOverhead -count 5   # telemetry-overhead arms only
//	abdhfl-bench -o BENCH_1.json         # write to a file
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// Result is one benchmark line of `go test -bench -benchmem` output. Custom
// metrics reported via b.ReportMetric (e.g. the scale engine's "devices/sec")
// land in Extra keyed by their unit string.
type Result struct {
	Name        string             `json:"name"`
	Pkg         string             `json:"pkg,omitempty"`
	Iterations  int                `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  float64            `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64            `json:"allocs_per_op,omitempty"`
	Extra       map[string]float64 `json:"extra,omitempty"`
}

// Report is the file format: the environment lines go test prints plus every
// parsed benchmark result.
type Report struct {
	Goos    string   `json:"goos,omitempty"`
	Goarch  string   `json:"goarch,omitempty"`
	CPU     string   `json:"cpu,omitempty"`
	Pkg     string   `json:"pkg,omitempty"`
	Args    []string `json:"args"`
	Results []Result `json:"results"`
}

func main() {
	bench := flag.String("bench", "Table5Cell|Fig3Convergence|AggregateRules|TelemetryOverhead|TraceOverhead|ScaleDevicesPerSec|QueueDeep|CodecThroughput|TransportThroughput", "go test -bench regexp")
	benchtime := flag.String("benchtime", "3x", "go test -benchtime value")
	count := flag.Int("count", 1, "go test -count value")
	pkg := flag.String("pkg", ".,./internal/aggregate,./internal/codec,./internal/experiments,./internal/simnet,./internal/transport", "comma-separated packages to benchmark")
	out := flag.String("o", "", "output file (default stdout)")
	flag.Parse()

	pkgs := strings.Split(*pkg, ",")
	args := []string{
		"test", "-run", "^$",
		"-bench", *bench,
		"-benchtime", *benchtime,
		"-benchmem",
		"-count", strconv.Itoa(*count),
	}
	var report Report
	for _, p := range pkgs {
		p = strings.TrimSpace(p)
		if p == "" {
			continue
		}
		cmd := exec.Command("go", append(args, p)...)
		cmd.Stderr = os.Stderr
		raw, err := cmd.Output()
		if err != nil {
			fmt.Fprintf(os.Stderr, "abdhfl-bench: go %s %s: %v\n", strings.Join(args, " "), p, err)
			os.Exit(1)
		}
		merge(&report, parse(raw))
	}
	report.Args = append(args, pkgs...)
	if len(report.Results) == 0 {
		fmt.Fprintln(os.Stderr, "abdhfl-bench: no benchmark lines matched")
		os.Exit(1)
	}

	enc, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "abdhfl-bench: %v\n", err)
		os.Exit(1)
	}
	enc = append(enc, '\n')
	if *out == "" {
		os.Stdout.Write(enc)
		return
	}
	if err := os.WriteFile(*out, enc, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "abdhfl-bench: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %d results to %s\n", len(report.Results), *out)
}

// merge folds one package's parsed report into the combined one. Environment
// headers are identical across packages, so the first non-empty value wins;
// the top-level Pkg field accumulates every benchmarked package.
func merge(dst *Report, src Report) {
	if dst.Goos == "" {
		dst.Goos = src.Goos
	}
	if dst.Goarch == "" {
		dst.Goarch = src.Goarch
	}
	if dst.CPU == "" {
		dst.CPU = src.CPU
	}
	if src.Pkg != "" {
		if dst.Pkg == "" {
			dst.Pkg = src.Pkg
		} else {
			dst.Pkg += "," + src.Pkg
		}
	}
	for _, r := range src.Results {
		r.Pkg = src.Pkg
		dst.Results = append(dst.Results, r)
	}
}

// parse extracts environment headers and Benchmark… result lines from go test
// benchmark output.
func parse(raw []byte) Report {
	var rep Report
	sc := bufio.NewScanner(bytes.NewReader(raw))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos:"):
			rep.Goos = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
		case strings.HasPrefix(line, "goarch:"):
			rep.Goarch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
		case strings.HasPrefix(line, "cpu:"):
			rep.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
		case strings.HasPrefix(line, "pkg:"):
			rep.Pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
		case strings.HasPrefix(line, "Benchmark"):
			if r, ok := parseLine(line); ok {
				rep.Results = append(rep.Results, r)
			}
		}
	}
	return rep
}

// parseLine parses one result line, e.g.
//
//	BenchmarkTable5Cell/iid-multikrum/abdhfl  3  260948884 ns/op  73207978 B/op  494907 allocs/op
func parseLine(line string) (Result, bool) {
	f := strings.Fields(line)
	if len(f) < 4 {
		return Result{}, false
	}
	iters, err := strconv.Atoi(f[1])
	if err != nil {
		return Result{}, false
	}
	r := Result{Name: f[0], Iterations: iters}
	for i := 2; i+1 < len(f); i += 2 {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			continue
		}
		switch f[i+1] {
		case "ns/op":
			r.NsPerOp = v
		case "B/op":
			r.BytesPerOp = v
		case "allocs/op":
			r.AllocsPerOp = v
		default:
			if r.Extra == nil {
				r.Extra = map[string]float64{}
			}
			r.Extra[f[i+1]] = v
		}
	}
	return r, r.NsPerOp != 0
}
