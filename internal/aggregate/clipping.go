package aggregate

import (
	"fmt"
	"math"
	"sort"

	"abdhfl/internal/tensor"
)

// CenteredClipping is the CC rule of Karimireddy et al. (2021): starting
// from a robust reference point, repeatedly move towards the mean of the
// updates with each deviation clipped to radius Tau. The clipping bounds how
// far any single Byzantine update can drag the aggregate per iteration.
type CenteredClipping struct {
	// Tau is the clipping radius. Zero selects an adaptive radius: the
	// median distance from the reference to the updates.
	Tau float64
	// Iterations of the clip-and-average loop; zero selects 3.
	Iterations int
}

// Name implements Aggregator.
func (CenteredClipping) Name() string { return "centered-clipping" }

// Aggregate implements Aggregator.
func (a CenteredClipping) Aggregate(updates []tensor.Vector) (tensor.Vector, error) {
	return aggregateVia(a, updates)
}

// AggregateInto implements Aggregator. The per-update distances and clip
// scales live in scratch (the naive formulation reallocated the distance
// slice on every clipping iteration), and the clip-and-average pass is the
// fused CenteredStepWS kernel.
func (a CenteredClipping) AggregateInto(dst tensor.Vector, scratch *Scratch, updates []tensor.Vector) error {
	if err := checkUpdates(updates); err != nil {
		return err
	}
	iters := a.Iterations
	if iters == 0 {
		iters = 3
	}
	s := scratch.resolve()
	n := len(updates)
	// Robust start: coordinate median.
	tensor.CoordinateMedianWS(dst, updates, s.columns(n), nil, s.Workers)
	norms := growFloats(&s.norms, n)
	tmp := growFloats(&s.tmp, n)
	scales := growFloats(&s.scales, n)
	aud := s.Audit
	if aud != nil {
		// Defaults to all-kept; each completed iteration overwrites with
		// its clip scales, so the final iteration's verdict stands.
		aud.begin(a.Name(), n)
	}
	for it := 0; it < iters; it++ {
		tensor.DistancesWS(norms, dst, updates, s.Workers)
		tau := a.Tau
		if tau == 0 {
			copy(tmp, norms)
			tau = tensor.MedianInPlace(tmp)
			if tau == 0 {
				break // all updates coincide with the reference
			}
		}
		// scales[i] reproduces tensor.Clip's condition and scalar exactly.
		for i, nm := range norms {
			if nm > tau && nm > 0 {
				scales[i] = tau / nm
			} else {
				scales[i] = 1
			}
		}
		if aud != nil {
			aud.recordScales(scales)
		}
		tensor.CenteredStepWS(dst, updates, scales, s.Workers)
	}
	return finiteOut(dst)
}

// CosineClustering follows the clustered-FL defence of Sattler et al.
// (2020): updates are grouped by pairwise cosine similarity with
// single-linkage clustering at threshold MinSimilarity, and the mean of the
// largest cluster is returned — the assumption being that honest updates
// point in broadly the same direction while attacks form their own, smaller
// cluster.
type CosineClustering struct {
	// MinSimilarity is the cosine threshold for two updates to be linked;
	// zero selects 0.
	MinSimilarity float64
}

// Name implements Aggregator.
func (CosineClustering) Name() string { return "cosine-clustering" }

// Aggregate implements Aggregator.
func (a CosineClustering) Aggregate(updates []tensor.Vector) (tensor.Vector, error) {
	return aggregateVia(a, updates)
}

// AggregateInto implements Aggregator.
func (a CosineClustering) AggregateInto(dst tensor.Vector, scratch *Scratch, updates []tensor.Vector) error {
	if err := checkUpdates(updates); err != nil {
		return err
	}
	s := scratch.resolve()
	n := len(updates)
	labels := a.labelsInto(s, updates)
	// Find the largest cluster; break ties towards the cluster whose members
	// have the smaller mean norm (attacks typically inflate norms), then the
	// smaller label. Labels are union-find roots in [0, n), so plain arrays
	// replace the map-and-sort of the naive formulation — and make the final
	// tie-break deterministic rather than map-iteration-order dependent.
	counts := growInts(&s.counts, n)
	normSums := growFloats(&s.scales, n)
	for i := range counts {
		counts[i] = 0
		normSums[i] = 0
	}
	for i, l := range labels {
		counts[l]++
		// s.norms was filled with the update norms by labelsInto.
		normSums[l] += s.norms[i]
	}
	best := -1
	bestMean := 0.0
	for l := 0; l < n; l++ {
		if counts[l] == 0 {
			continue
		}
		mean := normSums[l] / float64(counts[l])
		if best == -1 || counts[l] > counts[best] || (counts[l] == counts[best] && mean < bestMean) {
			best, bestMean = l, mean
		}
	}
	chosen := growVecs(&s.chosen, counts[best])
	m := 0
	for i := 0; i < n; i++ {
		if labels[i] == best {
			chosen[m] = updates[i]
			m++
		}
	}
	if aud := s.Audit; aud != nil {
		aud.begin(a.Name(), n)
		for i, l := range labels {
			if l != best {
				aud.Decisions[i] = DecisionTrimmed
			}
		}
	}
	tensor.MeanWS(dst, chosen, s.Workers)
	return finiteOut(dst)
}

// labelsInto performs single-linkage clustering into s.labels: i and j share
// a label when a chain of pairs with cosine similarity above the threshold
// connects them (union-find with path halving over the similarity graph).
// The pairwise Gram matrix is computed once — its diagonal yields the update
// norms, left in s.norms for the caller.
func (a CosineClustering) labelsInto(s *Scratch, updates []tensor.Vector) []int {
	n := len(updates)
	dots := growFloats(&s.dists, n*n)
	tensor.PairwiseDotsWS(dots, updates, s.Workers)
	norms := growFloats(&s.norms, n)
	for i := range norms {
		norms[i] = math.Sqrt(dots[i*n+i])
	}
	parent := growInts(&s.parent, n)
	for i := range parent {
		parent[i] = i
	}
	find := func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			sim := 0.0
			if norms[i] != 0 && norms[j] != 0 {
				sim = dots[i*n+j] / (norms[i] * norms[j])
			}
			if sim >= a.MinSimilarity {
				ri, rj := find(i), find(j)
				if ri != rj {
					parent[ri] = rj
				}
			}
		}
	}
	labels := growInts(&s.labels, n)
	for i := range labels {
		labels[i] = find(i)
	}
	return labels
}

// registry of aggregators constructible by name, for CLI tools and configs.
var registry = map[string]func() Aggregator{
	"mean":              func() Aggregator { return Mean{} },
	"median":            func() Aggregator { return Median{} },
	"trimmed-mean":      func() Aggregator { return TrimmedMean{TrimFraction: 0.25} },
	"geomed":            func() Aggregator { return GeoMed{} },
	"krum":              func() Aggregator { return Krum{FFraction: 0.25, M: 1} },
	"multi-krum":        func() Aggregator { return Krum{FFraction: 0.25} },
	"centered-clipping": func() Aggregator { return CenteredClipping{} },
	"cosine-clustering": func() Aggregator { return CosineClustering{} },
}

// ByName returns a default-configured aggregator for the given registry
// name, or an error listing the known names.
func ByName(name string) (Aggregator, error) {
	f, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("aggregate: unknown rule %q (known: %v)", name, Names())
	}
	return f(), nil
}

// Names returns the sorted registry names.
func Names() []string {
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
