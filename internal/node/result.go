package node

import (
	"sort"

	"abdhfl/internal/core"
	"abdhfl/internal/step"
)

// WireAudit is one aggregation step's filter verdict plus its step-local
// communication cost, in the JSON form partial messages carry up the tree.
// It mirrors telemetry.FilterDecision (ids have the same meaning: device
// ids at the bottom, child-cluster leader ids above) with the CommStats
// the root needs for σ-accounting piggybacked on.
type WireAudit struct {
	Level     int    `json:"level"`
	Cluster   int    `json:"cluster"`
	Round     int    `json:"round"`
	Rule      string `json:"rule"`
	Kept      []int  `json:"kept,omitempty"`
	Clipped   []int  `json:"clipped,omitempty"`
	Discarded []int  `json:"discarded,omitempty"`
	// Transfers/Scalars are the step's CommStats contribution.
	Transfers int `json:"transfers"`
	Scalars   int `json:"scalars"`
	// Excluded counts CBA-excluded proposals (top step only).
	Excluded int `json:"excluded,omitempty"`
}

// wireAudit packs one step's verdict and communication for the wire. The
// verdict's id lists are the stepper's reused buffers, so they are copied —
// into one backing array — before the next step overwrites them.
func wireAudit(lvl, ci, round int, v *step.Verdict, comm core.CommStats) WireAudit {
	ids := make([]int, 0, len(v.Kept)+len(v.Clipped)+len(v.Discarded))
	own := func(src []int) []int {
		if len(src) == 0 {
			return nil
		}
		ids = append(ids, src...)
		return ids[len(ids)-len(src) : len(ids) : len(ids)]
	}
	return WireAudit{
		Level: lvl, Cluster: ci, Round: round, Rule: v.Rule,
		Kept: own(v.Kept), Clipped: own(v.Clipped), Discarded: own(v.Discarded),
		Transfers: comm.ModelTransfers, Scalars: comm.ScalarMessages,
	}
}

// sortAudits orders one round's audits exactly as RunHFL emits them:
// bottom level first, ascending cluster index within a level, the top
// (level 0) step last.
func sortAudits(audits []WireAudit) {
	sort.SliceStable(audits, func(i, j int) bool {
		if audits[i].Level != audits[j].Level {
			return audits[i].Level > audits[j].Level
		}
		return audits[i].Cluster < audits[j].Cluster
	})
}

// Result is what a node engine reports after its rounds complete. Every
// node fills FinalParams (the final global model — identical across nodes,
// which the conformance tests assert, and read-only: the engines of one
// process may report the same vector) and Stalls; the
// learning-run fields (Curve, Comm, audit, σ-accounting) are the root's,
// mirroring core.Result field for field so the two engines' outputs
// compare directly.
type Result struct {
	FinalAccuracy float64          `json:"final_accuracy"`
	FinalParams   []float64        `json:"final_params,omitempty"`
	Curve         []core.RoundStat `json:"curve,omitempty"`
	Comm          core.CommStats   `json:"comm"`
	// ExcludedByConsensus counts CBA-excluded top-level proposals.
	ExcludedByConsensus int `json:"excluded_by_consensus"`
	// TrainerActivations counts device training runs across all rounds
	// (the root's tally of the deterministic availability draws).
	TrainerActivations int `json:"trainer_activations"`
	// Audit is the run-wide filter audit in RunHFL emission order,
	// reassembled by the root from the piggybacked subtree audits.
	Audit []WireAudit `json:"audit,omitempty"`
	// Stalls counts expected contributors this node timed out on.
	Stalls int `json:"stalls"`
}
