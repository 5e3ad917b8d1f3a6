package tensor

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// coordChunk is the fixed number of coordinates a worker claims at a time in
// the coordinate-parallel kernels. The chunk size is independent of the
// worker count and every coordinate is computed from scratch-local state, so
// results are bit-identical for every worker count: which goroutine handles
// a chunk never changes what is written.
const coordChunk = 1024

// ResolveWorkers maps the user-facing Workers knob (<=0 means "use every
// core") to a concrete goroutine count.
func ResolveWorkers(workers int) int {
	if workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return workers
}

// kernelWorkers clamps the requested worker count for a kernel doing
// items*perItem scalar operations: below parallelThreshold the goroutine
// fan-out costs more than it saves, so the kernel stays serial.
func kernelWorkers(items, perItem, workers int) int {
	if items*perItem < parallelThreshold {
		return 1
	}
	return ResolveWorkers(workers)
}

// parallelChunks splits [0, n) into fixed-size chunks and fans fn out across
// workers goroutines; each invocation receives the claiming worker's index w
// (for per-worker scratch) and a half-open range [lo, hi). Chunks are claimed
// off an atomic counter, so a given range may run on any worker: callers must
// write only to chunk-local destinations and keep per-chunk results
// independent of w, which makes output bit-identical for every worker count.
//
// The fn closure escapes to the heap; callers on an allocation-free path must
// run their serial case inline before constructing the closure (see MatVec).
func parallelChunks(n, chunk, workers int, fn func(w, lo, hi int)) {
	nchunks := (n + chunk - 1) / chunk
	if workers > nchunks {
		workers = nchunks
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				c := int(next.Add(1)) - 1
				if c >= nchunks {
					return
				}
				lo := c * chunk
				hi := lo + chunk
				if hi > n {
					hi = n
				}
				fn(w, lo, hi)
			}
		}(w)
	}
	wg.Wait()
}
