package aggregate

import (
	"fmt"
	"slices"

	"abdhfl/internal/tensor"
)

// Krum is the rule of Blanchard et al. (2017). Each update is scored by the
// sum of its n-f-2 smallest squared distances to the other updates; Krum
// selects the single lowest-scored update, MultiKrum (M > 1) averages the M
// lowest-scored ones.
//
// F may be given either as an absolute count (F >= 1) or, matching the
// paper's "assumed proportion of malicious nodes in Krum's algorithm set to
// 25%", as a fraction via FFraction; the effective f is
// max(F, floor(FFraction*n)).
type Krum struct {
	F         int     // assumed number of Byzantine updates
	FFraction float64 // assumed Byzantine fraction of n (paper: 0.25)
	M         int     // updates averaged; 1 = classic Krum, >1 = MultiKrum
}

// NewMultiKrum returns the MultiKrum configuration used by the paper's IID
// experiments: assumed Byzantine fraction frac, averaging all selected
// updates (m = n - f at aggregation time when M is 0).
func NewMultiKrum(frac float64) Krum { return Krum{FFraction: frac} }

// Name implements Aggregator.
func (a Krum) Name() string {
	if a.M == 1 {
		return "krum"
	}
	return "multi-krum"
}

// thresholds resolves the effective (f, k, m) for an n-member update set:
//
//   - f: assumed Byzantine count, max(F, floor(FFraction*n)).
//   - k: neighbours per Krum score. Krum needs n-f-2 >= 1; with tiny quorums
//     (n <= f+2) it falls back to nearest-neighbour scoring (k = 1) so small
//     clusters — the paper's cluster size is 4 — remain servable; the
//     selection property (an update surrounded by honest peers wins) is
//     preserved.
//   - m: updates averaged; M == 0 selects the MultiKrum default n-f (all
//     presumed-honest updates), clamped to [1, n].
func (a Krum) thresholds(n int) (f, k, m int, err error) {
	f = a.F
	if ff := int(a.FFraction * float64(n)); ff > f {
		f = ff
	}
	if f < 0 {
		return 0, 0, 0, fmt.Errorf("aggregate: krum with negative f")
	}
	k = n - f - 2
	if k < 1 {
		k = 1
	}
	m = a.M
	if m == 0 {
		m = n - f
	}
	if m < 1 {
		m = 1
	}
	if m > n {
		m = n
	}
	return f, k, m, nil
}

// Aggregate implements Aggregator.
func (a Krum) Aggregate(updates []tensor.Vector) (tensor.Vector, error) {
	return aggregateVia(a, updates)
}

// AggregateInto implements Aggregator.
func (a Krum) AggregateInto(dst tensor.Vector, scratch *Scratch, updates []tensor.Vector) error {
	if err := checkUpdates(updates); err != nil {
		return err
	}
	n := len(updates)
	_, k, m, err := a.thresholds(n)
	if err != nil {
		return err
	}
	s := scratch.resolve()
	if n == 1 {
		copy(dst, updates[0])
		if aud := s.Audit; aud != nil {
			aud.begin(a.Name(), 1)
		}
		return nil
	}
	order := krumOrderWS(s, updates, k)
	if aud := s.Audit; aud != nil {
		aud.begin(a.Name(), n)
		aud.keepOnly(order[:m])
	}
	if m == 1 {
		copy(dst, updates[order[0]])
		return nil
	}
	chosen := growVecs(&s.chosen, m)
	for i := 0; i < m; i++ {
		chosen[i] = updates[order[i]]
	}
	tensor.MeanWS(dst, chosen, s.Workers)
	return finiteOut(dst)
}

// krumOrderWS fills s.order with the update indices sorted by ascending Krum
// score (ties by index) and returns it.
func krumOrderWS(s *Scratch, updates []tensor.Vector, k int) []int {
	n := len(updates)
	dists := growFloats(&s.dists, n*n)
	sqn := growFloats(&s.sqn, n)
	tensor.PairwiseSquaredDistancesWS(dists, sqn, updates, s.Workers)
	scores := growFloats(&s.scores, n)
	row := growFloats(&s.row, n)
	alive := growInts(&s.idx, n)
	for i := range alive {
		alive[i] = i
	}
	for i := 0; i < n; i++ {
		scores[i] = krumScoreAt(dists, n, alive, i, k, row)
	}
	order := growInts(&s.order, n)
	scoreOrder(order, scores)
	return order
}

// krumScoreAt computes the Krum score of alive[ai]: the sum of its k smallest
// squared distances to the other alive updates, summed in ascending order
// (selection finds the k smallest, a final small sort fixes their order so
// the sum matches the fully-sorted formulation bit for bit).
func krumScoreAt(dists []float64, n int, alive []int, ai, k int, row []float64) float64 {
	r := row[:0]
	i := alive[ai]
	for aj, j := range alive {
		if aj != ai {
			r = append(r, dists[i*n+j])
		}
	}
	if k > len(r) {
		k = len(r)
	}
	if k < len(r) {
		tensor.SelectKth(r, k-1)
	}
	smallest := r[:k]
	slices.Sort(smallest)
	s := 0.0
	for _, v := range smallest {
		s += v
	}
	return s
}

// scoreOrder fills order with 0..n-1 sorted by ascending scores, ties by
// index (stable insertion sort — no closure, no allocation).
func scoreOrder(order []int, scores []float64) {
	for i := range order {
		order[i] = i
	}
	for i := 1; i < len(order); i++ {
		o := order[i]
		j := i - 1
		for j >= 0 && scores[order[j]] > scores[o] {
			order[j+1] = order[j]
			j--
		}
		order[j+1] = o
	}
}
