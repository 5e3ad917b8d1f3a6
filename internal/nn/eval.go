// Evaluation kernels. The simulator evaluates models constantly — the
// per-round test-set measurement plus n×n validator scorings inside every
// consensus instance — so these paths are built around two invariants:
//
//  1. Allocation-free steady state: the *WS variants reuse a caller-held
//     Workspace and never allocate.
//  2. Worker-count-independent determinism: the parallel variants split the
//     dataset into fixed-size chunks, compute per-chunk partial sums, and
//     reduce them in chunk-index order. The floating-point operation
//     sequence is therefore identical for any worker count (including 1),
//     so serial and parallel evaluation are bit-identical.
package nn

import (
	"sync"
	"sync/atomic"

	"abdhfl/internal/dataset"
	"abdhfl/internal/tensor"
)

// evalChunkSize is the number of samples per parallel evaluation chunk. It
// also defines the loss reduction tree: per-chunk sums are combined in chunk
// order, so the value is part of the determinism contract and must not vary
// with worker count.
const evalChunkSize = 256

// Accuracy evaluates m on d and returns the fraction of correct argmax
// predictions in [0, 1], fanning out over GOMAXPROCS goroutines for large
// datasets. Use AccuracyWorkers to bound the pool, AccuracyWS for the
// allocation-free serial kernel.
func Accuracy(m *Model, d *dataset.Dataset) float64 {
	return AccuracyWorkers(m, d, 0)
}

// AccuracyWorkers is Accuracy with an explicit worker bound (<=0 selects
// GOMAXPROCS). Results are identical for every worker count.
func AccuracyWorkers(m *Model, d *dataset.Dataset, workers int) float64 {
	if d.Len() == 0 {
		return 0
	}
	correct := 0
	forEachChunk(m, d.Len(), workers, func(ws *Workspace, lo, hi int) (int, float64) {
		return correctRange(m, ws, d, lo, hi), 0
	}, func(c int, _ float64) { correct += c })
	return float64(correct) / float64(d.Len())
}

// AccuracyWS evaluates m on d serially using ws as scratch; with a warm
// workspace it performs zero allocations.
func AccuracyWS(m *Model, ws *Workspace, d *dataset.Dataset) float64 {
	if d.Len() == 0 {
		return 0
	}
	return float64(correctRange(m, ws, d, 0, d.Len())) / float64(d.Len())
}

// Loss returns the mean softmax cross-entropy loss of m on d without
// touching parameters, parallelised like Accuracy.
func Loss(m *Model, d *dataset.Dataset) float64 {
	return LossWorkers(m, d, 0)
}

// LossWorkers is Loss with an explicit worker bound (<=0 selects GOMAXPROCS).
func LossWorkers(m *Model, d *dataset.Dataset, workers int) float64 {
	if d.Len() == 0 {
		return 0
	}
	total := 0.0
	forEachChunk(m, d.Len(), workers, func(ws *Workspace, lo, hi int) (int, float64) {
		return 0, lossRange(m, ws, d, lo, hi)
	}, func(_ int, l float64) { total += l })
	return total / float64(d.Len())
}

// LossWS is the allocation-free serial loss kernel.
func LossWS(m *Model, ws *Workspace, d *dataset.Dataset) float64 {
	if d.Len() == 0 {
		return 0
	}
	return lossRange(m, ws, d, 0, d.Len()) / float64(d.Len())
}

// Evaluate computes accuracy and mean loss together with a single forward
// pass per sample — half the work of calling Accuracy then Loss — over a
// bounded worker pool (workers <= 0 selects GOMAXPROCS).
func Evaluate(m *Model, d *dataset.Dataset, workers int) (acc, loss float64) {
	if d.Len() == 0 {
		return 0, 0
	}
	correct := 0
	total := 0.0
	forEachChunk(m, d.Len(), workers, func(ws *Workspace, lo, hi int) (int, float64) {
		return evalRange(m, ws, d, lo, hi)
	}, func(c int, l float64) { correct += c; total += l })
	return float64(correct) / float64(d.Len()), total / float64(d.Len())
}

// EvaluateWS is the allocation-free serial combined kernel.
func EvaluateWS(m *Model, ws *Workspace, d *dataset.Dataset) (acc, loss float64) {
	if d.Len() == 0 {
		return 0, 0
	}
	c, l := evalRange(m, ws, d, 0, d.Len())
	return float64(c) / float64(d.Len()), l / float64(d.Len())
}

// forEachLogits runs the forward pass over samples [lo, hi) a tile at a time
// and hands fn each sample's logits in index order. The logits are owned by
// ws and valid only during the call.
func forEachLogits(m *Model, ws *Workspace, d *dataset.Dataset, lo, hi int, fn func(i int, logits tensor.Vector)) {
	for lo < hi {
		n := min(tile, hi-lo)
		for k, logits := range m.forwardTile(ws, d.X[lo:lo+n]) {
			fn(lo+k, logits)
		}
		lo += n
	}
}

// xentLoss returns the cross-entropy loss of one sample given its logits,
// which it overwrites with the softmax probabilities.
func xentLoss(logits tensor.Vector, label int) float64 {
	p := Softmax(logits, logits)[label]
	if p < 1e-12 {
		p = 1e-12
	}
	return -ln(p)
}

// correctRange counts the correct argmax predictions of [lo, hi).
func correctRange(m *Model, ws *Workspace, d *dataset.Dataset, lo, hi int) int {
	correct := 0
	forEachLogits(m, ws, d, lo, hi, func(i int, logits tensor.Vector) {
		if tensor.ArgMax(logits) == d.Y[i] {
			correct++
		}
	})
	return correct
}

// lossRange sums the sample losses of [lo, hi) in index order.
func lossRange(m *Model, ws *Workspace, d *dataset.Dataset, lo, hi int) float64 {
	total := 0.0
	forEachLogits(m, ws, d, lo, hi, func(i int, logits tensor.Vector) {
		total += xentLoss(logits, d.Y[i])
	})
	return total
}

// evalRange counts correct predictions and sums losses of [lo, hi) in index
// order with one forward pass per sample.
func evalRange(m *Model, ws *Workspace, d *dataset.Dataset, lo, hi int) (int, float64) {
	correct := 0
	total := 0.0
	forEachLogits(m, ws, d, lo, hi, func(i int, logits tensor.Vector) {
		if tensor.ArgMax(logits) == d.Y[i] {
			correct++
		}
		total += xentLoss(logits, d.Y[i])
	})
	return correct, total
}

// borrowWS lends a workspace shaped for m: a scratch of the pool that built
// m, so a warm pool evaluates without building one, or a new workspace for a
// model no pool built. returnWS gives it back. No result depends on which:
// the forward pass overwrites every activation it reads.
func borrowWS(m *Model) *EvalScratch {
	if m.pool != nil {
		return m.pool.Get()
	}
	return &EvalScratch{WS: NewWorkspace(m)}
}

func returnWS(m *Model, s *EvalScratch) {
	if m.pool != nil {
		m.pool.Put(s)
	}
}

// forEachChunk splits [0, n) into evalChunkSize chunks, runs kernel over
// them on up to `workers` goroutines (each with its own m-shaped workspace,
// borrowed by borrowWS), and reduces the per-chunk results IN CHUNK ORDER
// via combine — the source of worker-count independence. The single-worker
// case runs inline with no goroutines.
func forEachChunk(m *Model, n, workers int, kernel func(ws *Workspace, lo, hi int) (int, float64), combine func(int, float64)) {
	chunks := (n + evalChunkSize - 1) / evalChunkSize
	workers = tensor.ResolveWorkers(workers)
	if workers > chunks {
		workers = chunks
	}
	if workers <= 1 {
		s := borrowWS(m)
		for c := 0; c < chunks; c++ {
			lo := c * evalChunkSize
			hi := lo + evalChunkSize
			if hi > n {
				hi = n
			}
			ci, cf := kernel(s.WS, lo, hi)
			combine(ci, cf)
		}
		returnWS(m, s)
		return
	}
	counts := make([]int, chunks)
	sums := make([]float64, chunks)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := borrowWS(m)
			for {
				c := int(next.Add(1)) - 1
				if c >= chunks {
					returnWS(m, s)
					return
				}
				lo := c * evalChunkSize
				hi := lo + evalChunkSize
				if hi > n {
					hi = n
				}
				counts[c], sums[c] = kernel(s.WS, lo, hi)
			}
		}()
	}
	wg.Wait()
	for c := 0; c < chunks; c++ {
		combine(counts[c], sums[c])
	}
}
