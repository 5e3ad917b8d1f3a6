package aggregate

// Decision classifies how an aggregation rule treated one update.
type Decision uint8

const (
	// DecisionKept: the update entered the aggregate at full weight.
	DecisionKept Decision = iota
	// DecisionClipped: the update contributed with reduced weight
	// (norm-bound / centered-clipping scale < 1).
	DecisionClipped
	// DecisionTrimmed: the update was excluded (or, for coordinate rules,
	// trimmed on far more coordinates than chance predicts).
	DecisionTrimmed
)

// String returns the decision's report label.
func (d Decision) String() string {
	switch d {
	case DecisionKept:
		return "kept"
	case DecisionClipped:
		return "clipped"
	default:
		return "trimmed"
	}
}

// FilterAudit, when attached to Scratch.Audit, makes every AggregateInto
// record which updates it kept, clipped, or trimmed — the raw material of
// the per-level filter precision/recall experiments. Recording reuses the
// audit's own buffers, so the zero-allocation steady state of the rules is
// preserved; the audit never changes what a rule computes, only observes
// it. Contents are valid after a successful AggregateInto and until the
// next call with the same Scratch.
//
// Selection rules (krum, multi-krum, bulyan, cosine-clustering) report
// exact per-update decisions. Scaling rules (norm-bound, centered-clipping)
// mark updates whose final clip scale fell below 1 as clipped, with the
// scale in Weights. Coordinate rules (median, trimmed-mean) have no
// per-update verdict — each coordinate trims independently — so the audit
// counts, per update, the fraction of coordinates on which it was trimmed
// (TrimFrac) and marks the update trimmed when that fraction exceeds the
// midpoint between the chance rate and 1; geomed similarly thresholds its
// Weiszfeld weights at half the uniform weight 1/n.
type FilterAudit struct {
	// Rule is the display name of the rule that produced the audit.
	Rule string
	// Decisions[i] is update i's verdict.
	Decisions []Decision
	// Weights[i] is update i's contribution weight where the rule defines
	// one (clip scale for scaling rules, normalised Weiszfeld weight for
	// geomed); 1 elsewhere.
	Weights []float64
	// TrimFrac[i] is the fraction of coordinates on which update i was
	// trimmed (coordinate rules only; 0 elsewhere).
	TrimFrac []float64
}

// begin resets the audit for a rule over n updates, defaulting every
// decision to kept at weight 1.
func (a *FilterAudit) begin(rule string, n int) {
	a.Rule = rule
	if cap(a.Decisions) < n {
		a.Decisions = make([]Decision, n)
	}
	a.Decisions = a.Decisions[:n]
	a.Weights = growFloats(&a.Weights, n)
	a.TrimFrac = growFloats(&a.TrimFrac, n)
	for i := 0; i < n; i++ {
		a.Decisions[i] = DecisionKept
		a.Weights[i] = 1
		a.TrimFrac[i] = 0
	}
}

// Counts tallies the decisions.
func (a *FilterAudit) Counts() (kept, clipped, trimmed int) {
	for _, d := range a.Decisions {
		switch d {
		case DecisionKept:
			kept++
		case DecisionClipped:
			clipped++
		default:
			trimmed++
		}
	}
	return
}

// keepOnly marks exactly the listed updates kept and every other trimmed.
func (a *FilterAudit) keepOnly(kept []int) {
	for i := range a.Decisions {
		a.Decisions[i] = DecisionTrimmed
	}
	for _, i := range kept {
		a.Decisions[i] = DecisionKept
	}
}

// recordScales marks updates with clip scale < 1 as clipped and copies the
// scales into Weights.
func (a *FilterAudit) recordScales(scales []float64) {
	for i, sc := range scales {
		a.Weights[i] = sc
		if sc < 1 {
			a.Decisions[i] = DecisionClipped
		} else {
			a.Decisions[i] = DecisionKept
		}
	}
}

// recordKept audits a coordinate-wise rule that keeps, per coordinate, the
// values at width of the n sorted ranks. kept[i] is the number of update i's
// dim coordinates whose value lay inside the kept value range (ties count as
// kept, so the measure is conservative) — counted by the kernel that formed
// the aggregate, from the selection it made anyway. recordKept fills
// TrimFrac and marks the update trimmed when its trim fraction exceeds the
// midpoint between the chance rate (n-width)/n and 1 — an update trimmed that
// often is being systematically pushed to the extremes, which is exactly the
// behaviour the rule defends against.
func (a *FilterAudit) recordKept(kept []int, dim, width int) {
	if dim == 0 {
		return
	}
	n := len(a.Decisions)
	chance := float64(n-width) / float64(n)
	threshold := (chance + 1) / 2
	for i := range a.Decisions {
		a.TrimFrac[i] = 1 - float64(kept[i])/float64(dim)
		if a.TrimFrac[i] > threshold {
			a.Decisions[i] = DecisionTrimmed
		} else {
			a.Decisions[i] = DecisionKept
		}
	}
}

// recordGeoMedWeights derives per-update Weiszfeld weights from the final
// geometric median: weight_i ∝ 1/dist(median, update_i), normalised to sum
// 1. Updates whose weight falls below half the uniform share 1/n are marked
// trimmed — the geometric median has effectively ignored them. An update
// coinciding with the median receives the entire weight mass of the
// zero-distance group.
func (a *FilterAudit) recordGeoMedWeights(dists []float64) {
	n := len(dists)
	zero := 0
	for _, d := range dists {
		if d == 0 {
			zero++
		}
	}
	if zero > 0 {
		for i, d := range dists {
			if d == 0 {
				a.Weights[i] = 1 / float64(zero)
			} else {
				a.Weights[i] = 0
			}
		}
	} else {
		sum := 0.0
		for _, d := range dists {
			sum += 1 / d
		}
		for i, d := range dists {
			a.Weights[i] = (1 / d) / sum
		}
	}
	threshold := 1 / (2 * float64(n))
	for i, w := range a.Weights {
		if w < threshold {
			a.Decisions[i] = DecisionTrimmed
		} else {
			a.Decisions[i] = DecisionKept
		}
	}
}
