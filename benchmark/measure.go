package main

import (
	"fmt"
	"runtime"
	"time"
)

// plan is how much of everything one benchmark pass does. The full plan is
// the one BENCHMARK.json's numbers are defined on; -quick shrinks it to a
// smoke test whose numbers mean nothing.
type plan struct {
	seed    uint64
	seconds float64 // measured seconds per workload, split over the windows
	windows int
	minRuns int // runs a window holds at least, however long they take
	// Warm-up ends at warmRuns runs or warmTime, whichever comes first: the
	// first runs of node.RunCluster are 2–5× slower than steady state.
	warmRuns int
	warmTime time.Duration
	// setup is repeated at least setupReps times and for at least setupTime,
	// so a millisecond-sized Build still yields a median that repeats.
	setupReps int
	setupTime time.Duration
	// Replay pass sizes (see replay.go).
	refRuns      int           // timed engine runs at one processor
	probeTime    time.Duration // how long the transport pair pushes frames
	triples      int           // detached/telemetry/trace triples on table5_cell
	kernelRounds int           // repetitions of the direct tensor kernel calls
	quick        bool
}

func fullPlan(seed uint64, seconds float64) plan {
	return plan{
		seed: seed, seconds: seconds, windows: 5, minRuns: 3,
		warmRuns: 10, warmTime: 3 * time.Second,
		setupReps: 5, setupTime: 2 * time.Second,
		refRuns: 5, probeTime: 2 * time.Second, triples: 45, kernelRounds: 20000,
	}
}

func quickPlan(seed uint64) plan {
	return plan{
		seed: seed, seconds: 1, windows: 1, minRuns: 1,
		warmRuns: 1, warmTime: time.Second,
		setupReps: 1,
		refRuns:   1, probeTime: 100 * time.Millisecond, triples: 1, kernelRounds: 2000,
		quick: true,
	}
}

// window is one measured stretch of back-to-back runs: closed loop, one run
// in flight, the next starting when the last returns.
type window struct {
	runs    []float64 // wall seconds of each run
	wall    float64   // seconds from the first run's start to the last's end
	alloc   uint64    // runtime.MemStats.TotalAlloc over the window
	mallocs uint64    // runtime.MemStats.Mallocs over the window
}

// measurement is one workload's timed pass.
type measurement struct {
	w      workload
	p      plan
	setups []float64
	wins   []window
	// attempted/failed count every run made — warm-up, timed, quality —
	// since each is checked; firstErr keeps the first failure's reason.
	attempted, failed int
	firstErr          error
	next              uint64
	quality           float64
}

func (m *measurement) fail(err error) {
	m.failed++
	if m.firstErr == nil {
		m.firstErr = fmt.Errorf("%s: %w", m.w.name(), err)
	}
}

// setup times the workload's set-up repeatedly; the last one's materials are
// the ones the runs use. The collector runs before every repetition, so each
// starts from the same heap and meets the same number of collections on its
// way: a 10 ms Build that sometimes contains a collection and sometimes does
// not has no median worth the name.
func (m *measurement) setup() error {
	start := time.Now()
	for len(m.setups) < m.p.setupReps || time.Since(start) < m.p.setupTime {
		runtime.GC()
		t0 := time.Now()
		if err := m.w.setup(m.p.seed); err != nil {
			return fmt.Errorf("%s: setup: %w", m.w.name(), err)
		}
		m.setups = append(m.setups, time.Since(t0).Seconds())
	}
	return nil
}

// one makes the next run of the closed loop and returns its wall seconds.
func (m *measurement) one() float64 {
	seed := m.p.seed + m.next%engineSeeds
	m.next++
	m.attempted++
	t0 := time.Now()
	err := m.w.run(seed)
	d := time.Since(t0).Seconds()
	if err != nil {
		m.fail(err)
	}
	return d
}

// preparer is a workload with untimed work to do between set-up and the
// first timed run.
type preparer interface{ prepare() error }

// warm discards the first runs and lets the workload prepare, so that nothing
// but runs happens inside a timed window.
func (m *measurement) warm() {
	start := time.Now()
	for i := 0; i < m.p.warmRuns && time.Since(start) < m.p.warmTime; i++ {
		m.one()
	}
	if p, ok := m.w.(preparer); ok {
		if err := p.prepare(); err != nil {
			m.fail(err)
		}
	}
}

// window measures one window of the plan's length. The collector runs
// before it, not inside it, so each window starts from the same heap.
func (m *measurement) window() {
	length := time.Duration(m.p.seconds / float64(m.p.windows) * float64(time.Second))
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var w window
	start := time.Now()
	for len(w.runs) < m.p.minRuns || time.Since(start) < length {
		w.runs = append(w.runs, m.one())
	}
	w.wall = time.Since(start).Seconds()
	runtime.ReadMemStats(&after)
	w.alloc = after.TotalAlloc - before.TotalAlloc
	w.mallocs = after.Mallocs - before.Mallocs
	m.wins = append(m.wins, w)
}

// qualityPass runs the untimed quality pass and holds it against the floor.
func (m *measurement) qualityPass() {
	acc, attempted, failed, err := m.w.quality(m.p.quick)
	m.attempted += attempted
	m.failed += failed
	if err != nil && m.firstErr == nil {
		m.firstErr = fmt.Errorf("%s: quality pass: %w", m.w.name(), err)
	}
	m.quality = acc
	if !m.p.quick && acc < m.w.qualityFloor() {
		m.fail(fmt.Errorf("final_accuracy %.4f is under the recorded floor %.4f", acc, m.w.qualityFloor()))
	}
}

// perWindow maps every window to one number.
func (m *measurement) perWindow(f func(window) float64) []float64 {
	out := make([]float64, len(m.wins))
	for i, w := range m.wins {
		out[i] = f(w)
	}
	return out
}

func (m *measurement) allRuns() []float64 {
	var all []float64
	for _, w := range m.wins {
		all = append(all, w.runs...)
	}
	return all
}

// runP50 is run_s_p50: the median over windows of each window's median run.
func (m *measurement) runP50() float64 {
	return median(m.perWindow(func(w window) float64 { return median(w.runs) }))
}

// endToEnd returns the five end-to-end metrics. Every timing is the median
// of the per-window values: on a shared machine one window in five reads
// slow, and the median of windows is what repeats.
func (m *measurement) endToEnd() map[string]float64 {
	dr := float64(m.w.deviceRounds())
	return map[string]float64{
		"setup_s":   median(m.setups),
		"run_s_p50": m.runP50(),
		"device_rounds_per_s": median(m.perWindow(func(w window) float64 {
			return dr * float64(len(w.runs)) / w.wall
		})),
		"alloc_bytes_per_run": median(m.perWindow(func(w window) float64 {
			return float64(w.alloc) / float64(len(w.runs))
		})),
		"final_accuracy": m.quality,
	}
}
