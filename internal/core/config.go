// Package core assembles the paper's contribution: the ABD-HFL learning
// engines. RunHFL executes Algorithms 1-6 as a deterministic, logically
// synchronous round engine (used by the accuracy experiments of Table V and
// Fig 3); the async pipeline engine lives in internal/pipeline; RunVanilla
// is the star-topology baseline the paper compares against. Each level of
// the tree can aggregate with a Byzantine-robust rule (BRA) or a
// consensus-based protocol (CBA), giving the four Schemes of Table III.
//
// Every engine takes one run description, Config. RunVanilla runs the same
// devices, data and participation as RunHFL, with one server aggregating by
// Partial; it does not read Global, ValidationShards or Quorum, and refuses
// PartialByLevel, RotateLeaders and OnRound.
package core

import (
	"errors"
	"fmt"
	"sort"

	"abdhfl/internal/attack"
	"abdhfl/internal/codec"
	"abdhfl/internal/dataset"
	"abdhfl/internal/nn"
	"abdhfl/internal/step"
	"abdhfl/internal/telemetry"
	"abdhfl/internal/topology"
	"abdhfl/internal/trace"
)

// LevelRule selects the aggregation used at a tier of the tree: exactly one
// of BRA or CBA must be set. It is the cluster step's rule type.
type LevelRule = step.Rule

// Config describes one ABD-HFL run, for every engine: RunHFL and
// RunVanilla take it, pipeline.Config embeds it and the node engine builds
// its run from it; each says where it reads a field its own way or rejects
// it.
type Config struct {
	Tree *topology.Tree
	// Rounds is the paper's R (global rounds).
	Rounds int
	// Local is the per-client SGD configuration (the paper's T iterations).
	Local nn.TrainConfig
	// Hidden lists hidden-layer widths of the DNN; input/output widths come
	// from the dataset. Nil selects [32].
	Hidden []int

	// Partial is the aggregation rule for all intermediate levels (the
	// paper's levels 1..L); Global is the top-level (level 0) rule.
	Partial LevelRule
	Global  LevelRule
	// PartialByLevel optionally overrides Partial for specific intermediate
	// levels (map key = level index, 1..bottom) — the paper's "model
	// aggregation at different levels using different types of approaches".
	// Levels without an entry use Partial.
	PartialByLevel map[int]LevelRule

	// ClientData[i] is device i's training shard. Byzantine devices' shards
	// are poisoned by the harness before the run (data-poisoning attacks).
	ClientData []*dataset.Dataset
	// TestData is the held-out evaluation set for reported accuracy.
	TestData *dataset.Dataset
	// ValidationShards[j] is top-level node j's private validation set used
	// by CBA validators (the paper assigns the test pool evenly to the four
	// top nodes). Required when any CBA rule is used.
	ValidationShards []*dataset.Dataset

	// Byzantine marks devices as malicious. With a nil ModelAttack they are
	// pure data poisoners (the paper's Table V setting: even a malicious
	// leader aggregates honestly). With a ModelAttack they also corrupt
	// their submitted parameter vectors.
	Byzantine   map[int]bool
	ModelAttack attack.ModelPoison

	// Seed drives every stochastic component.
	Seed uint64
	// EvalEvery is the round interval between test-accuracy measurements;
	// zero selects 1. The final round is always evaluated.
	EvalEvery int
	// OnRound, if non-nil, receives every evaluated RoundStat as the run
	// progresses — streaming progress for long experiments.
	OnRound func(RoundStat)
	// Telemetry, when non-nil, receives the run's metrics: round and phase
	// timings, accuracy gauges, communication counters, consensus vote
	// tallies, and per-level filter kept/clipped/discarded counts. Nil
	// disables instrumentation entirely (the engines skip even the clock
	// reads).
	Telemetry *telemetry.Registry
	// OnFilter, if non-nil, receives every aggregation step's filtering
	// verdict — which contributor ids were kept, clipped, or discarded at
	// each (level, cluster, round). The decision's id slices are reused
	// between calls; consumers must copy or reduce them before returning.
	OnFilter func(telemetry.FilterDecision)
	// Trace, when non-nil, receives causal spans: per-device train spans,
	// per-(level,cluster) aggregations with rule and kept/filtered counts,
	// global formation, and round envelopes. The clock is the engine's: a
	// deterministic logical clock in the round engine, the virtual clock in
	// the pipeline. Output is byte-identical for every Workers value and
	// tracer shard count. Nil disables emission entirely.
	Trace *trace.Tracer
	// Workers bounds the worker pools of the run's parallel hot paths:
	// local training, test-set evaluation, and the robust-aggregation
	// kernels (coordinate statistics and pairwise distances fan out over
	// fixed-size chunks), for which zero selects GOMAXPROCS; and consensus
	// validator scoring, which takes the value as given (consensus.Context
	// treats a value below 1 as 1, so zero scores serially). Results are
	// bit-identical for every value — per-device/per-member work derives its
	// own RNG stream, reductions run in a fixed order, and the aggregation
	// kernels partition work identically regardless of worker count.
	Workers int
	// Quorum is the paper's φ: the fraction of a cluster's models a leader
	// waits for before aggregating; zero selects 1 (all models). Which
	// models a leader keeps is the engine's: the synchronous engines
	// subsample stragglers deterministically, the pipeline takes the first
	// arrivals.
	Quorum float64
	// RotateLeaders re-elects every cluster's leader each round
	// (leader = members[round mod size], upper levels rebuilt from the new
	// leaders) — the paper's leader election applied over time. It changes
	// which devices act as validators and consensus members at upper levels.
	RotateLeaders bool
	// Churn models the paper's Assumption 3 (nodes may join or leave
	// existing clusters): each round every device is independently offline
	// with probability OfflineProb and contributes no update that round.
	// Clusters whose members are all offline contribute no partial model;
	// the level above simply aggregates fewer inputs.
	Churn ChurnModel
	// Codec passes every model transfer on the device→leader→root path
	// (uploads, per-level partials, dissemination) through one
	// encode→decode hop, so the run reflects both the wire size (the
	// result's WireBytes) and the information loss of compressed updates.
	// The Delta codec's reference is the engine's: the round's start global
	// model in the round engine. Nil selects codec.Identity, the bit-exact
	// uncompressed hop; lossy codecs perturb only the vectors, never the rng
	// streams.
	Codec codec.Codec
	// Cohort is the number of trainers deterministically sampled from each
	// bottom cluster per round (cross-device FL's client sampling). Devices
	// outside the round's cohort contribute no update — attack placement and
	// filter auditing see only the sampled subset — and hold no materialized
	// model state, which is what lets runs scale far past the worker count.
	// Zero (or >= cluster size) trains every member, the original behaviour.
	Cohort int
}

// ChurnModel describes per-round device availability.
type ChurnModel struct {
	// OfflineProb is the per-round probability a device is offline.
	OfflineProb float64
}

// Validate reports configuration errors.
func (c *Config) Validate() error {
	if c.Tree == nil {
		return errors.New("core: Config.Tree is nil")
	}
	if err := c.Tree.Validate(); err != nil {
		return err
	}
	if c.Rounds <= 0 {
		return errors.New("core: Rounds must be positive")
	}
	if len(c.ClientData) != c.Tree.NumDevices() {
		return fmt.Errorf("core: %d client shards for %d devices", len(c.ClientData), c.Tree.NumDevices())
	}
	if c.TestData == nil || c.TestData.Len() == 0 {
		return errors.New("core: TestData is empty")
	}
	if err := c.Partial.Check("core: Partial"); err != nil {
		return err
	}
	if err := c.Global.Check("core: Global"); err != nil {
		return err
	}
	anyCBA := c.Partial.IsCBA() || c.Global.IsCBA()
	// Sorted, so that with several bad levels the error names the lowest.
	levels := make([]int, 0, len(c.PartialByLevel))
	for lvl := range c.PartialByLevel {
		levels = append(levels, lvl)
	}
	sort.Ints(levels)
	for _, lvl := range levels {
		rule := c.PartialByLevel[lvl]
		if lvl < 1 || lvl > c.Tree.Bottom() {
			return fmt.Errorf("core: PartialByLevel level %d out of [1, %d]", lvl, c.Tree.Bottom())
		}
		if err := rule.Check(fmt.Sprintf("core: PartialByLevel[%d]", lvl)); err != nil {
			return err
		}
		anyCBA = anyCBA || rule.IsCBA()
	}
	if c.Global.IsCBA() && len(c.ValidationShards) == 0 {
		// Without this guard the top-level shard validator would compute
		// member % len(ValidationShards) and panic with a mod-by-zero mid-run.
		return errors.New("core: top-level CBA (Global) requires at least one ValidationShard for voting validators")
	}
	if anyCBA {
		if len(c.ValidationShards) == 0 {
			return errors.New("core: CBA rules require ValidationShards")
		}
		for i, s := range c.ValidationShards {
			if s == nil || s.Len() == 0 {
				return fmt.Errorf("core: ValidationShards[%d] is empty", i)
			}
		}
	}
	if !(c.Quorum >= 0 && c.Quorum <= 1) { // a NaN fails every comparison
		return fmt.Errorf("core: Quorum %v out of [0,1]", c.Quorum)
	}
	if p := c.Churn.OfflineProb; !(p >= 0 && p < 1) {
		return fmt.Errorf("core: Churn.OfflineProb %v out of [0,1)", p)
	}
	if c.Cohort < 0 {
		return fmt.Errorf("core: Cohort %d must be >= 0", c.Cohort)
	}
	return nil
}

// RuleAt returns the aggregation rule of level lvl: Global at the top
// (level 0), the level's PartialByLevel entry or Partial below it.
func (c *Config) RuleAt(lvl int) LevelRule {
	if lvl == 0 {
		return c.Global
	}
	if rule, ok := c.PartialByLevel[lvl]; ok {
		return rule
	}
	return c.Partial
}

// Evaluates reports whether the engines measure test accuracy after round
// (counted from 0): every EvalEvery-th round (zero selects 1) and the last.
func (c *Config) Evaluates(round int) bool {
	return (round+1)%max(c.EvalEvery, 1) == 0 || round == c.Rounds-1
}

// RoundStat is one point of a convergence curve.
type RoundStat struct {
	Round    int
	Accuracy float64
	// Loss is the mean test loss (only filled on evaluated rounds).
	Loss float64
}

// CommStats counts the communication of a run.
type CommStats struct {
	// ModelTransfers counts full-model messages (upload, broadcast,
	// dissemination, consensus model exchange).
	ModelTransfers int
	// ScalarMessages counts light messages (votes, scores).
	ScalarMessages int
	// WireBytes is the total encoded size of all model transfers:
	// ModelTransfers × the codec's wire size.
	WireBytes int64
}

// Add accumulates o into s.
func (s *CommStats) Add(o CommStats) {
	s.ModelTransfers += o.ModelTransfers
	s.ScalarMessages += o.ScalarMessages
	s.WireBytes += o.WireBytes
}

// Result is the outcome of a run.
type Result struct {
	FinalAccuracy float64
	// FinalParams is the flat parameter vector of the final global model,
	// loadable into a matching nn.Model for downstream evaluation (e.g.
	// backdoor trigger rates).
	FinalParams []float64
	Curve       []RoundStat
	Comm        CommStats
	// ExcludedByConsensus counts proposals the top-level CBA ruled out
	// across all rounds (0 for BRA tops).
	ExcludedByConsensus int
	// TrainerActivations counts device-train events across the run (devices
	// × rounds when nothing limits participation; fewer under churn or
	// cohort sampling).
	TrainerActivations int
	// TrainerBuffers is the most update buffers the engine lent in any one
	// round. Idle devices hold no model vector, so with cohort sampling this
	// tracks the per-round active set, not the device count — the
	// lazy-state guarantee the scale tests pin.
	TrainerBuffers int
}
