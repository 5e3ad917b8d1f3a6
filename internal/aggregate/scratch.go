package aggregate

import "abdhfl/internal/tensor"

// Scratch holds the reusable working memory of the aggregation rules — the
// aggregation analogue of nn.Workspace. Buffers grow on demand and are kept
// across calls, so a rule's steady-state AggregateInto allocates nothing.
//
// A Scratch is owned by a single goroutine: concurrent AggregateInto calls
// must use separate Scratch values (every node engine's step keeps its own).
// The zero value is ready to use; Workers <= 0 means "use every core".
// Results are bit-identical for every Workers value — the kernels follow
// tensor's deterministic-chunking contract — so the knob only trades
// wall-clock time, never reproducibility.
type Scratch struct {
	// Workers bounds the goroutine fan-out of the parallel kernels.
	Workers int
	// Audit, when non-nil, makes every AggregateInto record its per-update
	// filtering decisions into it (see FilterAudit). Auditing observes the
	// rules without changing their output and reuses the audit's buffers,
	// so the steady state stays allocation-free.
	Audit *FilterAudit

	cols   []float64       // per-worker coordinate columns (workers × 2n)
	kept   []int           // per-worker kept-coordinate counts (workers × n)
	dists  []float64       // flat n×n pairwise distances / Gram matrix
	sqn    []float64       // squared norms for the Gram trick
	scores []float64       // per-update Krum scores
	row    []float64       // one off-diagonal distance row
	order  []int           // update indices in score order
	idx    []int           // surviving-update indices (Bulyan stage 1)
	parent []int           // union-find forest (cosine clustering)
	labels []int           // cluster label per update
	counts []int           // cluster sizes
	norms  []float64       // per-update norms or distances
	scales []float64       // per-update clip scales / norm sums
	tmp    []float64       // median work copy of norms
	chosen []tensor.Vector // selected updates to average
	vbuf   tensor.Vector   // dim-length temporary (Weiszfeld iterate)
}

// NewScratch returns a Scratch whose kernels fan out across at most workers
// goroutines (<= 0 selects GOMAXPROCS).
func NewScratch(workers int) *Scratch { return &Scratch{Workers: workers} }

// resolve returns a usable Scratch: a nil receiver (the legacy Aggregate
// shim's case) gets a fresh single-call scratch.
func (s *Scratch) resolve() *Scratch {
	if s == nil {
		return &Scratch{}
	}
	return s
}

// workerCount resolves the Workers knob for buffer sizing.
func (s *Scratch) workerCount() int {
	return tensor.ResolveWorkers(s.Workers)
}

// columns returns the per-worker coordinate-column scratch for n updates:
// two columns a worker, the second for the copy an audited pass selects on.
func (s *Scratch) columns(n int) []float64 {
	return growFloats(&s.cols, s.workerCount()*2*n)
}

// keptCounts returns the per-worker kept-coordinate counts a coordinate
// kernel fills for the audit of n updates, or nil when nothing is audited.
func (s *Scratch) keptCounts(n int) []int {
	if s.Audit == nil {
		return nil
	}
	return growInts(&s.kept, s.workerCount()*n)
}

// vector returns a dim-length temporary vector.
func (s *Scratch) vector(dim int) tensor.Vector {
	if cap(s.vbuf) < dim {
		s.vbuf = tensor.NewVector(dim)
	}
	s.vbuf = s.vbuf[:dim]
	return s.vbuf
}

func growFloats(buf *[]float64, n int) []float64 {
	if cap(*buf) < n {
		*buf = make([]float64, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

func growInts(buf *[]int, n int) []int {
	if cap(*buf) < n {
		*buf = make([]int, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

func growVecs(buf *[]tensor.Vector, n int) []tensor.Vector {
	if cap(*buf) < n {
		*buf = make([]tensor.Vector, n)
	}
	*buf = (*buf)[:n]
	return *buf
}
