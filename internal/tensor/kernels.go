package tensor

import "math"

// This file holds the workspace ("WS") forms of the aggregation kernels: the
// caller owns every buffer, nothing is allocated in steady state, and the
// parallel paths follow the deterministic-chunking contract of parallelChunks
// — output is bit-identical for every worker count. Serial fast paths are
// written inline before any closure is constructed so that small shapes stay
// allocation-free (see the MatVec comment).

// CoordinateMedianWS stores the per-coordinate median of vs into dst and
// returns dst: each coordinate's median is MedianInPlace of its column, so
// the result is bit-identical to CoordinateMedian for every worker count.
// Scratch, the kept counts and the worker contract are coordinateKept's.
func CoordinateMedianWS(dst Vector, vs []Vector, cols []float64, kept []int, workers int) Vector {
	return coordinateKept(dst, vs, -1, cols, kept, workers)
}

// CoordinateTrimmedMeanWS stores the per-coordinate trimmed mean of vs into
// dst and returns dst, trimming the trim extreme values at each end per
// coordinate (TrimmedMeanInPlace of each column). Scratch, the kept counts
// and the worker contract are coordinateKept's.
func CoordinateTrimmedMeanWS(dst Vector, vs []Vector, trim int, cols []float64, kept []int, workers int) Vector {
	if trim < 0 {
		panic("tensor: CoordinateTrimmedMeanWS trim out of range")
	}
	return coordinateKept(dst, vs, trim, cols, kept, workers)
}

// coordinateKept is the one kernel behind the coordinate rules, which keep,
// per coordinate, the values at a fixed range of sorted ranks and average
// them (trim < 0: the median's middle one or two; otherwise all but trim at
// each end). It gathers each column once, selects once, and takes from that
// one selection both the aggregate for dst and the kept value range [lo, hi]
// a filter audit counts against.
//
// kept, if non-nil, is that audit: on return kept[i] is the number of
// coordinates on which vs[i]'s value lay inside [lo, hi] (a value tied with
// an edge counts as kept). Nil skips the counting and the column copy it
// needs.
//
// Scratch: cols holds 2·len(vs) values and a non-nil kept len(vs) counts per
// participating worker; the worker count is clamped to what both can serve.
// Each worker writes dst only inside the chunks it claims and counts into its
// own row of kept, and the rows are added up after the join — integer sums,
// so dst and kept are identical for every worker count.
func coordinateKept(dst Vector, vs []Vector, trim int, cols []float64, kept []int, workers int) Vector {
	n := len(vs)
	if n == 0 {
		panic("tensor: coordinate kernel over an empty set")
	}
	assertSameLen(dst, vs[0])
	workers = coordColWorkers(len(dst), n, 2*n, len(cols), workers)
	if kept != nil {
		if len(kept) < n {
			panic("tensor: coordinate kernel kept counts shorter than the set")
		}
		workers = min(workers, len(kept)/n)
	}
	// One row of n counts per worker, row 0 the result; nil when kept is.
	// (Assigned once: the closure below then captures it by value and the
	// serial path allocates nothing.)
	rows := kept[:min(len(kept), workers*n)]
	clear(rows)
	if workers <= 1 {
		coordinateKeptRange(dst, vs, trim, cols, rows, 0, len(dst))
		return dst
	}
	parallelChunks(len(dst), coordChunk, workers, func(w, lo, hi int) {
		var cnt []int
		if rows != nil {
			cnt = rows[w*n : (w+1)*n]
		}
		coordinateKeptRange(dst, vs, trim, cols[2*w*n:], cnt, lo, hi)
	})
	for w := 1; w < len(rows)/n; w++ {
		for i, c := range rows[w*n : (w+1)*n] {
			rows[i] += c
		}
	}
	return dst
}

// coordinateKeptRange runs coordinateKept over coordinates [from, to) with one
// worker's scratch: cols starts with its two columns, cnt is its row of kept
// counts or nil.
func coordinateKeptRange(dst Vector, vs []Vector, trim int, cols []float64, cnt []int, from, to int) {
	n := len(vs)
	// The selection permutes its column; counting needs the input order, so
	// an audited pass selects on a copy.
	col, work := cols[:n], cols[:n]
	if cnt != nil {
		work = cols[n : 2*n]
	}
	for j := from; j < to; j++ {
		for k, v := range vs {
			col[k] = v[j]
		}
		if cnt != nil {
			copy(work, col)
		}
		var lo, hi float64
		if trim < 0 {
			dst[j], lo, hi = medianKept(work)
		} else {
			dst[j], lo, hi = trimmedMeanKept(work, trim)
		}
		for i := range cnt {
			if v := col[i]; v >= lo && v <= hi {
				cnt[i]++
			}
		}
	}
}

// CoordinateNearMedianMeanWS stores, per coordinate, the mean of the beta
// values of vs closest to that coordinate's median into dst and returns dst
// — the second stage of Bulyan. The closest values are selected and summed
// in ascending order of |value − median|, replacing the per-coordinate
// sort.Slice closure of the naive formulation. Distance ties resolve to the
// earlier input index: at n = 2 every coordinate is an exact tie, and the
// caller's order (Bulyan's is best Krum score first) must decide it, not
// whatever order the median's quickselect left behind. Scratch and
// determinism contract as for CoordinateMedianWS.
func CoordinateNearMedianMeanWS(dst Vector, vs []Vector, beta int, cols []float64, workers int) Vector {
	n := len(vs)
	if n == 0 {
		panic("tensor: CoordinateNearMedianMeanWS of empty set")
	}
	if beta < 1 || beta > n {
		panic("tensor: CoordinateNearMedianMeanWS beta out of range")
	}
	assertSameLen(dst, vs[0])
	workers = coordColWorkers(len(dst), n, n, len(cols), workers)
	if workers <= 1 {
		nearMedianMeanRange(dst, vs, beta, cols[:n], 0, len(dst))
		return dst
	}
	parallelChunks(len(dst), coordChunk, workers, func(w, lo, hi int) {
		nearMedianMeanRange(dst, vs, beta, cols[w*n:w*n+n], lo, hi)
	})
	return dst
}

func nearMedianMeanRange(dst Vector, vs []Vector, beta int, col []float64, lo, hi int) {
	n := len(vs)
	for j := lo; j < hi; j++ {
		for i, v := range vs {
			col[i] = v[j]
		}
		med := MedianInPlace(col)
		// MedianInPlace reordered col; gather it again in input order.
		for i, v := range vs {
			col[i] = v[j]
		}
		// Stable partial selection by distance to the median: after step t,
		// col[:t+1] holds the t+1 closest values in ascending-distance order
		// and col[t+1:] the rest, still in input order.
		s := 0.0
		for t := 0; t < beta; t++ {
			best := t
			bd := math.Abs(col[t] - med)
			for x := t + 1; x < n; x++ {
				if d := math.Abs(col[x] - med); d < bd {
					best, bd = x, d
				}
			}
			v := col[best]
			copy(col[t+1:best+1], col[t:best])
			col[t] = v
			s += v
		}
		dst[j] = s / float64(beta)
	}
}

// coordColWorkers combines the work-size clamp (d coordinates of n values)
// with the scratch-size clamp for the column-scratch coordinate kernels, which
// need per scratch values for each worker.
func coordColWorkers(d, n, per, colsLen, workers int) int {
	if colsLen < per {
		panic("tensor: coordinate kernel scratch smaller than one worker's columns")
	}
	return min(kernelWorkers(d, n, workers), colsLen/per)
}

// MeanWS stores the arithmetic mean of vs into dst and returns dst, fanning
// out across coordinate chunks. The per-coordinate sum runs over updates in
// index order, so the result is bit-identical to Mean for every worker
// count. dst must not alias any element of vs.
func MeanWS(dst Vector, vs []Vector, workers int) Vector {
	if len(vs) == 0 {
		panic("tensor: MeanWS of empty set")
	}
	assertSameLen(dst, vs[0])
	inv := 1 / float64(len(vs))
	workers = kernelWorkers(len(dst), len(vs), workers)
	if workers <= 1 {
		scaledSumRange(dst, vs, nil, inv, 0, len(dst))
		return dst
	}
	parallelChunks(len(dst), coordChunk, workers, func(_, lo, hi int) {
		scaledSumRange(dst, vs, nil, inv, lo, hi)
	})
	return dst
}

// ScaledMeanWS stores (1/len(vs)) * Σ_i scales[i]*vs[i] into dst and returns
// dst. It is the fused "clip then average" kernel: with scales[i] = 1 a term
// contributes vs[i] exactly (1*x == x in IEEE-754), so the result is
// bit-identical to cloning, scaling and averaging. dst must not alias any
// element of vs.
func ScaledMeanWS(dst Vector, vs []Vector, scales []float64, workers int) Vector {
	if len(vs) == 0 {
		panic("tensor: ScaledMeanWS of empty set")
	}
	if len(vs) != len(scales) {
		panic("tensor: ScaledMeanWS scale count mismatch")
	}
	assertSameLen(dst, vs[0])
	inv := 1 / float64(len(vs))
	workers = kernelWorkers(len(dst), len(vs), workers)
	if workers <= 1 {
		scaledSumRange(dst, vs, scales, inv, 0, len(dst))
		return dst
	}
	parallelChunks(len(dst), coordChunk, workers, func(_, lo, hi int) {
		scaledSumRange(dst, vs, scales, inv, lo, hi)
	})
	return dst
}

// scaledSumRange computes dst[j] = inv * Σ_i scales[i]*vs[i][j] for j in
// [lo, hi), with nil scales meaning all ones.
func scaledSumRange(dst Vector, vs []Vector, scales []float64, inv float64, lo, hi int) {
	for j := lo; j < hi; j++ {
		s := 0.0
		if scales == nil {
			for _, v := range vs {
				s += v[j]
			}
		} else {
			for i, v := range vs {
				s += scales[i] * v[j]
			}
		}
		dst[j] = s * inv
	}
}

// CenteredStepWS applies one centered-clipping step in place:
//
//	v[j] += Σ_i (1/len(vs)) * (scales[i] * (vs[i][j] − v[j]))
//
// with the update sum in index order. It reproduces the exact operation
// sequence of the sub/clip/axpy formulation (scales[i] = 1 contributes the
// raw difference, as 1*x == x), so results match it bit for bit.
func CenteredStepWS(v Vector, vs []Vector, scales []float64, workers int) Vector {
	if len(vs) == 0 {
		panic("tensor: CenteredStepWS of empty set")
	}
	if len(vs) != len(scales) {
		panic("tensor: CenteredStepWS scale count mismatch")
	}
	assertSameLen(v, vs[0])
	invN := 1 / float64(len(vs))
	workers = kernelWorkers(len(v), len(vs), workers)
	if workers <= 1 {
		centeredStepRange(v, vs, scales, invN, 0, len(v))
		return v
	}
	parallelChunks(len(v), coordChunk, workers, func(_, lo, hi int) {
		centeredStepRange(v, vs, scales, invN, lo, hi)
	})
	return v
}

func centeredStepRange(v Vector, vs []Vector, scales []float64, invN float64, lo, hi int) {
	for j := lo; j < hi; j++ {
		vj := v[j]
		step := 0.0
		for i, u := range vs {
			step += invN * (scales[i] * (u[j] - vj))
		}
		v[j] = vj + step
	}
}

// DistancesWS stores the Euclidean distance from `from` to each element of vs
// into dists and returns dists. Each distance is an independent serial
// reduction, so values are bit-identical for every worker count.
func DistancesWS(dists []float64, from Vector, vs []Vector, workers int) []float64 {
	n := len(vs)
	if len(dists) != n {
		panic("tensor: DistancesWS length mismatch")
	}
	workers = kernelWorkers(n, len(from), workers)
	if workers <= 1 {
		for i, v := range vs {
			dists[i] = Distance(from, v)
		}
		return dists
	}
	parallelChunks(n, 1, workers, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			dists[i] = Distance(from, vs[i])
		}
	})
	return dists
}

// NormsWS stores the Euclidean norm of each element of vs into norms and
// returns norms. Determinism contract as for DistancesWS.
func NormsWS(norms []float64, vs []Vector, workers int) []float64 {
	n := len(vs)
	if len(norms) != n {
		panic("tensor: NormsWS length mismatch")
	}
	dim := 0
	if n > 0 {
		dim = len(vs[0])
	}
	workers = kernelWorkers(n, dim, workers)
	if workers <= 1 {
		for i, v := range vs {
			norms[i] = Norm2(v)
		}
		return norms
	}
	parallelChunks(n, 1, workers, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			norms[i] = Norm2(vs[i])
		}
	})
	return norms
}

// PairwiseDotsWS fills the flat row-major n×n Gram matrix dst[i*n+j] =
// vs[i]·vs[j] (diagonal included) and returns dst. Rows are computed
// independently — each cell is one serial Dot — so values are bit-identical
// for every worker count.
func PairwiseDotsWS(dst []float64, vs []Vector, workers int) []float64 {
	n := len(vs)
	if len(dst) != n*n {
		panic("tensor: PairwiseDotsWS length mismatch")
	}
	dim := 0
	if n > 0 {
		dim = len(vs[0])
	}
	workers = kernelWorkers(n*(n+1)/2, dim, workers)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			pairwiseDotsRow(dst, vs, n, i)
		}
		return dst
	}
	parallelChunks(n, 1, workers, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			pairwiseDotsRow(dst, vs, n, i)
		}
	})
	return dst
}

func pairwiseDotsRow(dst []float64, vs []Vector, n, i int) {
	dst[i*n+i] = Dot(vs[i], vs[i])
	for j := i + 1; j < n; j++ {
		d := Dot(vs[i], vs[j])
		dst[i*n+j] = d
		dst[j*n+i] = d
	}
}

// PairwiseSquaredDistancesWS fills the flat row-major n×n matrix dst with
// squared Euclidean distances via the Gram identity
//
//	‖a−b‖² = ‖a‖² + ‖b‖² − 2·a·b
//
// using sqn (length n) as scratch for the squared norms, and returns dst.
// Computing each row costs one Dot per pair instead of a subtract-square
// pass, but cancellation means the values differ from SquaredDistance in the
// last bits and can dip below zero (clamped to 0 here): callers must use
// them only for discrete selection (nearest-neighbour sums, rankings), never
// arithmetic that feeds model parameters. Values are bit-identical for every
// worker count.
func PairwiseSquaredDistancesWS(dst, sqn []float64, vs []Vector, workers int) []float64 {
	n := len(vs)
	if len(dst) != n*n {
		panic("tensor: PairwiseSquaredDistancesWS length mismatch")
	}
	if len(sqn) != n {
		panic("tensor: PairwiseSquaredDistancesWS sqn length mismatch")
	}
	dim := 0
	if n > 0 {
		dim = len(vs[0])
	}
	for i, v := range vs {
		sqn[i] = Dot(v, v)
	}
	workers = kernelWorkers(n*(n+1)/2, dim, workers)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			pairwiseSqDistRow(dst, sqn, vs, n, i)
		}
		return dst
	}
	parallelChunks(n, 1, workers, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			pairwiseSqDistRow(dst, sqn, vs, n, i)
		}
	})
	return dst
}

func pairwiseSqDistRow(dst, sqn []float64, vs []Vector, n, i int) {
	dst[i*n+i] = 0
	for j := i + 1; j < n; j++ {
		d := sqn[i] + sqn[j] - 2*Dot(vs[i], vs[j])
		if d < 0 {
			d = 0
		}
		dst[i*n+j] = d
		dst[j*n+i] = d
	}
}

// GeometricMedianWS computes the geometric median of vs by Weiszfeld's
// iteration into dst with caller-owned buffers: next has the length of dst
// and dists has len(vs). The distance pass fans out across updates, the
// weighted accumulation across coordinate chunks with the update loop
// innermost in index order — both reproduce GeometricMedian's serial
// operation sequence exactly, so results are bit-identical to it for every
// worker count.
func GeometricMedianWS(dst Vector, vs []Vector, tol float64, maxIter int, next Vector, dists []float64, workers int) Vector {
	n := len(vs)
	if n == 0 {
		panic("tensor: GeometricMedianWS of empty set")
	}
	assertSameLen(dst, vs[0])
	assertSameLen(next, dst)
	if len(dists) != n {
		panic("tensor: GeometricMedianWS dists length mismatch")
	}
	MeanWS(dst, vs, workers)
	w := kernelWorkers(len(dst), n, workers)
	for iter := 0; iter < maxIter; iter++ {
		DistancesWS(dists, dst, vs, workers)
		wsum := 0.0
		for i, d := range dists {
			if d < 1e-12 {
				// Iterate sits on a sample point; Weiszfeld's weight would
				// blow up. Nudging by epsilon keeps the iteration stable.
				d = 1e-12
			}
			dists[i] = 1 / d
			wsum += dists[i]
		}
		inv := 1 / wsum
		if w <= 1 {
			scaledSumRange(next, vs, dists, inv, 0, len(next))
		} else {
			parallelChunks(len(next), coordChunk, w, func(_, lo, hi int) {
				scaledSumRange(next, vs, dists, inv, lo, hi)
			})
		}
		moved := Distance(dst, next)
		copy(dst, next)
		if moved < tol {
			break
		}
	}
	return dst
}
