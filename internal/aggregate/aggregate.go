// Package aggregate implements the Byzantine-robust aggregation (BRA) rules
// of the paper's Table II: plain/weighted federated averaging, Krum and
// MultiKrum (Euclidean distance), coordinate Median and TrimmedMean (mean
// value / median), geometric median (GeoMed), Centered Clipping, and
// cosine-similarity clustering. All rules consume flat parameter vectors (see
// nn.Model.Params) and implement a single Aggregator interface so any level
// of the ABD-HFL tree can be configured with any rule.
//
// Every rule offers two entry points: AggregateInto, the allocation-free
// steady-state form that writes into a caller-owned destination and reuses a
// Scratch across rounds, and Aggregate, a convenience shim that allocates
// both. Either way the result is bit-identical for every worker count.
package aggregate

import (
	"errors"
	"fmt"

	"abdhfl/internal/tensor"
)

// ErrNoUpdates is returned when an aggregation rule receives zero updates.
var ErrNoUpdates = errors.New("aggregate: no updates to aggregate")

// ErrNonFinite is returned when a rule's arithmetic overflows to NaN or ±Inf
// even though every input was finite (e.g. averaging values near the float64
// range limit). Callers treat it like any other malformed-quorum error: the
// aggregation is rejected rather than poisoning the model with non-finite
// parameters.
var ErrNonFinite = errors.New("aggregate: aggregation overflowed to non-finite values")

// finiteOut is every rule's success-path postcondition: an aggregation that
// returns nil must have written only finite values into dst.
func finiteOut(dst tensor.Vector) error {
	if !tensor.AllFinite(dst) {
		return ErrNonFinite
	}
	return nil
}

// Aggregator combines parameter vectors into one. Implementations must not
// modify the input vectors.
type Aggregator interface {
	// Name identifies the rule in configs and reports.
	Name() string
	// Aggregate returns the combined vector. Implementations return an error
	// (never panic) when the update set violates the rule's preconditions,
	// because in the asynchronous protocol a malformed quorum is an expected
	// runtime condition, not a programming error.
	Aggregate(updates []tensor.Vector) (tensor.Vector, error)
	// AggregateInto writes the combined vector into dst, reusing scratch's
	// buffers so the steady state allocates nothing. dst must have the
	// updates' dimension and must not alias any update; scratch may be nil
	// (one-shot buffers are then allocated). On error dst's contents are
	// unspecified.
	AggregateInto(dst tensor.Vector, scratch *Scratch, updates []tensor.Vector) error
}

func checkUpdates(updates []tensor.Vector) error {
	if len(updates) == 0 {
		return ErrNoUpdates
	}
	dim := len(updates[0])
	for i, u := range updates {
		if len(u) != dim {
			return fmt.Errorf("aggregate: update %d has dim %d, want %d", i, len(u), dim)
		}
		if !tensor.AllFinite(u) {
			return fmt.Errorf("aggregate: update %d contains non-finite values", i)
		}
	}
	return nil
}

// aggregateVia implements the legacy allocate-and-return form on top of a
// rule's AggregateInto.
func aggregateVia(a Aggregator, updates []tensor.Vector) (tensor.Vector, error) {
	if len(updates) == 0 {
		return nil, ErrNoUpdates
	}
	dst := tensor.NewVector(len(updates[0]))
	if err := a.AggregateInto(dst, nil, updates); err != nil {
		return nil, err
	}
	return dst, nil
}

// Mean is plain federated averaging (FedAvg). It has no Byzantine tolerance:
// a single malicious update can move the aggregate arbitrarily, which is the
// baseline the robust rules are compared against.
type Mean struct{}

// Name implements Aggregator.
func (Mean) Name() string { return "mean" }

// Aggregate implements Aggregator.
func (a Mean) Aggregate(updates []tensor.Vector) (tensor.Vector, error) {
	return aggregateVia(a, updates)
}

// AggregateInto implements Aggregator.
func (a Mean) AggregateInto(dst tensor.Vector, scratch *Scratch, updates []tensor.Vector) error {
	if err := checkUpdates(updates); err != nil {
		return err
	}
	s := scratch.resolve()
	tensor.MeanWS(dst, updates, s.Workers)
	if aud := s.Audit; aud != nil {
		// Plain averaging filters nothing: every update is kept.
		aud.begin(a.Name(), len(updates))
	}
	return finiteOut(dst)
}

// Median is the coordinate-wise median rule of Yin et al. (2018).
type Median struct{}

// Name implements Aggregator.
func (Median) Name() string { return "median" }

// Aggregate implements Aggregator.
func (a Median) Aggregate(updates []tensor.Vector) (tensor.Vector, error) {
	return aggregateVia(a, updates)
}

// AggregateInto implements Aggregator.
func (a Median) AggregateInto(dst tensor.Vector, scratch *Scratch, updates []tensor.Vector) error {
	if err := checkUpdates(updates); err != nil {
		return err
	}
	s := scratch.resolve()
	n := len(updates)
	kept := s.keptCounts(n)
	tensor.CoordinateMedianWS(dst, updates, s.columns(n), kept, s.Workers)
	if aud := s.Audit; aud != nil {
		aud.begin(a.Name(), n)
		// The median keeps rank (n-1)/2, or the two middle ranks for even n.
		aud.recordKept(kept, len(dst), 2-n%2)
	}
	return finiteOut(dst)
}

// TrimmedMean is the coordinate-wise trimmed mean of Yin et al. (2018),
// removing TrimFraction of the updates at each extreme per coordinate.
type TrimmedMean struct {
	// TrimFraction in [0, 0.5); the number trimmed per side is
	// floor(TrimFraction * n), at least 1 when TrimFraction > 0 and n > 2.
	TrimFraction float64
}

// Name implements Aggregator.
func (a TrimmedMean) Name() string { return fmt.Sprintf("trimmed-mean(%.2f)", a.TrimFraction) }

// Aggregate implements Aggregator.
func (a TrimmedMean) Aggregate(updates []tensor.Vector) (tensor.Vector, error) {
	return aggregateVia(a, updates)
}

// AggregateInto implements Aggregator.
func (a TrimmedMean) AggregateInto(dst tensor.Vector, scratch *Scratch, updates []tensor.Vector) error {
	if err := checkUpdates(updates); err != nil {
		return err
	}
	n := len(updates)
	trim := int(a.TrimFraction * float64(n))
	if a.TrimFraction > 0 && trim == 0 && n > 2 {
		trim = 1
	}
	if 2*trim >= n {
		return fmt.Errorf("aggregate: trimmed mean would remove all %d updates (trim %d per side)", n, trim)
	}
	s := scratch.resolve()
	kept := s.keptCounts(n)
	tensor.CoordinateTrimmedMeanWS(dst, updates, trim, s.columns(n), kept, s.Workers)
	if aud := s.Audit; aud != nil {
		// The family name, not Name(): formatting the fraction would put an
		// allocation on the audited hot path.
		aud.begin("trimmed-mean", n)
		aud.recordKept(kept, len(dst), n-2*trim)
	}
	return finiteOut(dst)
}

// GeoMed aggregates by the geometric median (Chen et al. 2017), computed via
// Weiszfeld's iteration.
type GeoMed struct {
	// Tol and MaxIter bound the Weiszfeld iteration; zero values select
	// 1e-8 and 200.
	Tol     float64
	MaxIter int
}

// Name implements Aggregator.
func (GeoMed) Name() string { return "geomed" }

// Aggregate implements Aggregator.
func (a GeoMed) Aggregate(updates []tensor.Vector) (tensor.Vector, error) {
	return aggregateVia(a, updates)
}

// AggregateInto implements Aggregator.
func (a GeoMed) AggregateInto(dst tensor.Vector, scratch *Scratch, updates []tensor.Vector) error {
	if err := checkUpdates(updates); err != nil {
		return err
	}
	tol := a.Tol
	if tol == 0 {
		tol = 1e-8
	}
	maxIter := a.MaxIter
	if maxIter == 0 {
		maxIter = 200
	}
	s := scratch.resolve()
	next := s.vector(len(updates[0]))
	dists := growFloats(&s.norms, len(updates))
	tensor.GeometricMedianWS(dst, updates, tol, maxIter, next, dists, s.Workers)
	if aud := s.Audit; aud != nil {
		aud.begin(a.Name(), len(updates))
		// Distances from the converged median define the Weiszfeld weights.
		tensor.DistancesWS(dists, dst, updates, s.Workers)
		aud.recordGeoMedWeights(dists)
	}
	return finiteOut(dst)
}
