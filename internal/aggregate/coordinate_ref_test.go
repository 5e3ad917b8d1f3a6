package aggregate

import (
	"fmt"
	"math"
	"testing"

	"abdhfl/internal/rng"
	"abdhfl/internal/tensor"
	"abdhfl/internal/testenv"
)

// The two-pass form the coordinate rules had before the one-pass kernel,
// kept here as the oracle: a median / trimmed-mean pass over every column
// (CoordinateMedianWS / CoordinateTrimmedMeanWS, serial), then
// FilterAudit.recordCoordinates gathering every column again and selecting
// the same ranks a second time. trim < 0 selects the median.
func refCoordinateAudit(updates []tensor.Vector, trim int) (dst tensor.Vector, decisions []Decision, trimFrac []float64) {
	n := len(updates)
	dim := len(updates[0])
	loRank, hiRank := trim, n-1-trim
	if trim < 0 {
		loRank, hiRank = (n-1)/2, n/2
	}
	dst = tensor.NewVector(dim)
	col := make([]float64, n)
	for j := range dst {
		for k, v := range updates {
			col[k] = v[j]
		}
		if trim < 0 {
			dst[j] = tensor.MedianInPlace(col)
		} else {
			dst[j] = tensor.TrimmedMeanInPlace(col, trim)
		}
	}

	decisions = make([]Decision, n)
	trimFrac = make([]float64, n)
	if dim == 0 {
		return
	}
	work := make([]float64, n)
	cnt := make([]int, n)
	for j := 0; j < dim; j++ {
		for i, u := range updates {
			col[i] = u[j]
		}
		copy(work, col)
		hi := tensor.SelectKth(work, hiRank)
		lo := hi
		if loRank < hiRank {
			lo = tensor.SelectKth(work[:hiRank+1], loRank)
		}
		for i, v := range col {
			if v >= lo && v <= hi {
				cnt[i]++
			}
		}
	}
	chance := float64(n-(hiRank-loRank+1)) / float64(n)
	threshold := (chance + 1) / 2
	for i := range decisions {
		trimFrac[i] = 1 - float64(cnt[i])/float64(dim)
		if trimFrac[i] > threshold {
			decisions[i] = DecisionTrimmed
		}
	}
	return
}

// tiedPopulation is n updates of dim coordinates built to hit what a
// selection kernel can get wrong: continuous columns, columns drawn from
// three values (rank ties across the kept range's edges), columns of mixed
// +0 / -0 and of -0 alone (where the order of a sum decides the sign of the
// result), a column repeated from its neighbour, and every third update a
// copy of the one before it.
func tiedPopulation(seed uint64, n, dim int) []tensor.Vector {
	r := rng.New(seed)
	negZero := math.Copysign(0, -1)
	updates := make([]tensor.Vector, n)
	for i := range updates {
		updates[i] = tensor.NewVector(dim)
	}
	for j := 0; j < dim; j++ {
		for i, u := range updates {
			switch j % 6 {
			case 0, 5:
				u[j] = r.NormFloat64()
			case 1:
				u[j] = float64(r.Intn(3) - 1)
			case 2:
				u[j] = []float64{0, negZero}[r.Intn(2)]
			case 3:
				u[j] = negZero
			case 4:
				u[j] = u[j-1-r.Intn(4)]
			}
			if i%3 == 2 && r.Intn(4) > 0 {
				u[j] = updates[i-1][j]
			}
		}
	}
	return updates
}

// TestCoordinateAuditMatchesReference holds Median and TrimmedMean with an
// audit attached to the two-pass reference: the aggregate bit for bit, every
// decision and every trim fraction, for every worker count. Sizes cover the
// scale cell's four-to-eight-input clusters, the serial/parallel threshold
// (n·dim ≥ 1<<16 with dim 2410 is three coordinate chunks) and a population
// wide enough for the quickselect's partition path.
func TestCoordinateAuditMatchesReference(t *testing.T) {
	sizes := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 64, 1563}
	rules := []struct {
		rule Aggregator
		trim func(n int) int
	}{
		{Median{}, func(int) int { return -1 }},
		{TrimmedMean{TrimFraction: 0.25}, func(n int) int {
			if n <= 2 {
				return 0
			}
			return max(n/4, 1)
		}},
	}
	for _, n := range sizes {
		for _, dim := range []int{1, 16, 2410} {
			if n*dim > 1<<21 && (testing.Short() || testenv.UnderRace()) {
				continue // 3.8 M values: seconds plain, most of a minute under -race
			}
			updates := tiedPopulation(uint64(1000*n+dim), n, dim)
			for _, rc := range rules {
				wantDst, wantDec, wantFrac := refCoordinateAudit(updates, rc.trim(n))
				for _, workers := range []int{1, 2, 3, 8} {
					name := fmt.Sprintf("%s n=%d dim=%d workers=%d", rc.rule.Name(), n, dim, workers)
					s := NewScratch(workers)
					s.Audit = &FilterAudit{}
					dst := tensor.NewVector(dim)
					// Twice through one scratch: counts left over from the
					// first call must not reach the second.
					for pass := 0; pass < 2; pass++ {
						if err := rc.rule.AggregateInto(dst, s, updates); err != nil {
							t.Fatalf("%s: %v", name, err)
						}
					}
					if !bitsEqual(dst, wantDst) {
						t.Fatalf("%s: aggregate differs from the two-pass reference", name)
					}
					for i := range wantDec {
						if s.Audit.Decisions[i] != wantDec[i] || math.Float64bits(s.Audit.TrimFrac[i]) != math.Float64bits(wantFrac[i]) {
							t.Fatalf("%s: update %d audited %v at trim fraction %v, reference %v at %v",
								name, i, s.Audit.Decisions[i], s.Audit.TrimFrac[i], wantDec[i], wantFrac[i])
						}
					}
					plain := tensor.NewVector(dim)
					if err := rc.rule.AggregateInto(plain, NewScratch(workers), updates); err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if !bitsEqual(plain, wantDst) {
						t.Fatalf("%s: unaudited aggregate differs from the reference", name)
					}
				}
			}
		}
	}
}
