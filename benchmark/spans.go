package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// span is one call into a layer, timed from outside by the benchmark. The
// engines' own trace.Spans carry engine-clock (virtual) milliseconds and
// cannot split wall time, so the replay pass records these instead.
type span struct {
	ID int `json:"id"`
	// Parent is the ID of the span whose call made this one; 0 for none.
	Parent int `json:"parent"`
	// Run numbers the replayed run the span belongs to, from 1.
	Run   int     `json:"run"`
	Name  string  `json:"name"`
	Start float64 `json:"start_us"`
	End   float64 `json:"end_us"`
}

// recorder keeps spans in memory until the benchmark ends. A nil recorder
// records nothing: the replay runs once with one and once without, and the
// difference is the harness's own span overhead.
type recorder struct {
	t0    time.Time
	spans []span
	open  []int // indices of the spans begun and not yet ended, outermost first
	run   int
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) us() float64 { return float64(time.Since(r.t0).Nanoseconds()) / 1e3 }

// begin opens a span under the innermost open one.
func (r *recorder) begin(name string) {
	if r == nil {
		return
	}
	parent := 0
	if n := len(r.open); n > 0 {
		parent = r.spans[r.open[n-1]].ID
	}
	r.open = append(r.open, len(r.spans))
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Run: r.run, Name: name, Start: r.us()})
}

// end closes the innermost open span.
func (r *recorder) end() {
	if r == nil {
		return
	}
	n := len(r.open) - 1
	r.spans[r.open[n]].End = r.us()
	r.open = r.open[:n]
}

// selfTimes returns every span's self time in seconds, indexed like spans:
// its duration less the part its direct children cover. Children of one
// parent never overlap (the replay is single-threaded), so that part is the
// sum of their durations.
func selfTimes(spans []span) []float64 {
	self := make([]float64, len(spans))
	byID := make(map[int]int, len(spans))
	for i, s := range spans {
		byID[s.ID] = i
		self[i] = (s.End - s.Start) / 1e6
	}
	for _, s := range spans {
		if p, ok := byID[s.Parent]; ok {
			self[p] -= (s.End - s.Start) / 1e6
		}
	}
	return self
}

// busyByName sums self time per span name for every run: out[run][name].
func busyByName(spans []span) map[int]map[string]float64 {
	out := map[int]map[string]float64{}
	self := selfTimes(spans)
	for i, s := range spans {
		if out[s.Run] == nil {
			out[s.Run] = map[string]float64{}
		}
		out[s.Run][s.Name] += self[i]
	}
	return out
}

// layerOf is the layer a span name or metric name belongs to: the part
// before the first dot.
func layerOf(name string) string {
	layer, _, _ := strings.Cut(name, ".")
	return layer
}

// unattributedShare is the part of an engine's run that no replayed layer
// accounts for — scheduling, copying, payload packing, collect waits:
// 1 − Σ layer busy ÷ run time, both at one processor.
func unattributedShare(busy map[string]float64, runS float64) float64 {
	sum := 0.0
	for _, b := range busy {
		sum += b
	}
	return 1 - ratio(sum, runS)
}

// writeJSONL writes the spans one JSON object per line.
func writeJSONL(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
