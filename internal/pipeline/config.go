// Package pipeline implements ABD-HFL's asynchronous pipeline learning
// workflow on top of the discrete-event simulator: devices and cluster
// leaders are actors exchanging models over simulated links; a configurable
// flag level ℓ_F releases partial models downwards so the next global round
// of local training starts while global aggregation is still in flight, and
// stale global models are merged into in-progress local models with the
// correction factor of Eq. (1). The engine measures, per round, the paper's
// waiting time σ_w, pipelined aggregation time σ_p, global aggregation time
// σ_g, and the efficiency indicator ν = (σ_p+σ_g)/σ of Eq. (3).
//
// A run is a core.Config, as for every engine; Config embeds it and adds
// only what the simulation needs, and Run refuses by name what a run may
// ask for and this engine does not implement.
package pipeline

import (
	"errors"
	"fmt"

	"abdhfl/internal/core"
	"abdhfl/internal/fault"
	"abdhfl/internal/simnet"
	"abdhfl/internal/tensor"
	"abdhfl/internal/trace"
)

// Timing models the virtual durations of compute phases. Link delays come
// from the simnet latency model; these are node-local costs.
type Timing struct {
	// TrainBase/TrainJitter: a device's local-training duration is
	// TrainBase * (1 + U[0, TrainJitter]) virtual ms.
	TrainBase, TrainJitter float64
	// AggBase/AggJitter: a cluster aggregation (the paper's τ').
	AggBase, AggJitter float64
	// GlobalExtra is added on top of AggBase for the top-level aggregation
	// (consensus protocols cost more than one BRA pass; the paper's τ'_g).
	GlobalExtra float64
}

// DefaultTiming mirrors a modest edge deployment: training dominates,
// aggregation is cheap, consensus at the top costs a few aggregations.
func DefaultTiming() Timing {
	return Timing{TrainBase: 100, TrainJitter: 0.5, AggBase: 10, AggJitter: 0.2, GlobalExtra: 40}
}

// AlphaPolicy selects the correction factor α applied when a stale global
// model is merged into an in-progress local model (Eq. 1).
type AlphaPolicy interface {
	// Alpha returns the correction factor in (0, 1]. staleness is the
	// virtual time between the global model's formation and its merge;
	// relSize is the fraction of all training data under the receiving
	// device's flag-level ancestor (the relative dataset size of θ_F).
	Alpha(staleness, relSize float64) float64
}

// FixedAlpha ignores context and always returns its value.
type FixedAlpha float64

// Alpha implements AlphaPolicy.
func (f FixedAlpha) Alpha(_, _ float64) float64 { return float64(f) }

// AdaptiveAlpha implements the paper's two qualitative rules: α shrinks with
// global-model staleness (outdated information is penalised) and shrinks as
// the flag model's relative dataset size grows (a representative flag model
// leaves the global model little to add).
type AdaptiveAlpha struct {
	// Base is the α at zero staleness and zero relative size; zero selects 0.9.
	Base float64
	// StalenessScale is the staleness (virtual ms) at which the staleness
	// discount halves α; zero selects 500.
	StalenessScale float64
	// Floor bounds α away from zero; zero selects 0.05.
	Floor float64
}

// Alpha implements AlphaPolicy.
func (a AdaptiveAlpha) Alpha(staleness, relSize float64) float64 {
	base := a.Base
	if base == 0 {
		base = 0.9
	}
	scale := a.StalenessScale
	if scale == 0 {
		scale = 500
	}
	floor := a.Floor
	if floor == 0 {
		floor = 0.05
	}
	if relSize < 0 {
		relSize = 0
	}
	if relSize > 1 {
		relSize = 1
	}
	alpha := base * (scale / (scale + staleness)) * (1 - relSize)
	if alpha < floor {
		alpha = floor
	}
	if alpha > 1 {
		alpha = 1
	}
	return alpha
}

// Config describes one asynchronous pipeline run: a core.Config plus the
// pipeline's own knobs. The pipeline reads the run its own way:
//
//   - Partial, the rule of every cluster below the top, must be a BRA;
//     Global may be a BRA or any consensus protocol, scoring on
//     ValidationShards.
//   - A leader aggregates on the first arrivals that fill its Quorum.
//   - Codec hops at the sender that forms a model (upload, partial,
//     global/flag dissemination; forwards re-ship the same bytes), and its
//     wire bytes are the volume the latency and bandwidth models see. The
//     Delta reference is the last formed global model.
//   - Workers goroutines run local training off the event loop — dispatched
//     at a device's start in virtual time and joined at its finish timer,
//     since it is a pure function of start vector, round, device and shard
//     — and bound the aggregation kernels (zero selects GOMAXPROCS for
//     both); evaluation and everything observable stay on the loop in event
//     order, so results are bit-identical for every value.
//   - Telemetry also gets completed-round counters, the σ and ν
//     distributions and stale-global merges; Trace also gets the counted
//     message hops, on the virtual clock.
//
// Validate rejects PartialByLevel, ModelAttack, OnRound, RotateLeaders,
// Churn and Cohort: the pipeline implements none of them.
type Config struct {
	core.Config

	// FlagLevel ℓ_F in [0, bottom-1]: the level whose partial models are
	// disseminated as flag models. 0 means the global model itself is the
	// flag (no pipelining of the top).
	FlagLevel int
	// CollectTimeout is Algorithm 4's "or Timeout" branch (the
	// semi-synchronous regime of SHFL): a leader below the top that has
	// waited this many virtual ms since its first arrival for a round
	// aggregates whatever it holds, even below the quorum; the top waits for
	// its quorum. Zero disables timeouts (pure quorum).
	//
	// When Faults are enabled, every leader, the top's included, arms the
	// deadline as soon as it learns a round exists (forwarding its flag
	// model, or forming the previous global), so a leader whose inputs are
	// ALL lost still makes progress instead of waiting for a first arrival
	// that never comes.
	CollectTimeout float64
	// TimeoutBackoff multiplies the collect deadline on every empty expiry
	// (a deadline that fires with zero inputs re-arms rather than closing
	// the round). Zero selects 2; values below 1 are rejected.
	TimeoutBackoff float64
	// TimeoutRetries bounds how many times an empty deadline re-arms before
	// the leader abandons the round's collection (degraded operation: the
	// level above proceeds without this subtree). Zero selects 3.
	TimeoutRetries int

	// Faults, when non-nil and non-empty, injects the plan's failures into
	// the run: transport faults (drop/duplicate/reorder) at the simulator
	// layer, crash/churn/omission at the device layer, and leader failures
	// at the cluster layer. Leaders deduplicate contributions per round, so
	// duplicated messages can never double-fill a quorum. Same seed, same
	// plan -> bit-identical run.
	Faults *fault.Plan

	Timing Timing
	// Latency draws every link's delay; nil selects simnet.Fixed(1). A
	// simnet.SizedLatencyModel (simnet.Bandwidth, or any per-link one)
	// also charges each message's wire bytes — the per-level bandwidth
	// factor of Appendix E.
	Latency simnet.LatencyModel
	Alpha   AlphaPolicy

	// Flight, when non-nil, mirrors every delivered simulator message into
	// a bounded ring buffer; chaostest dumps its tail when an invariant
	// trips.
	Flight *trace.FlightRecorder
}

// Validate reports configuration errors: the run's own (core.Config's
// checks), the pipeline's, and every run field the pipeline does not
// implement, named.
func (c *Config) Validate() error {
	if err := c.Config.Validate(); err != nil {
		return fmt.Errorf("pipeline: %w", err)
	}
	if c.FlagLevel < 0 || c.FlagLevel > c.Tree.Bottom()-1 {
		return fmt.Errorf("pipeline: FlagLevel %d out of [0, %d]", c.FlagLevel, c.Tree.Bottom()-1)
	}
	if c.Partial.IsCBA() {
		return errors.New("pipeline: Partial must be a BRA: consensus runs only at the top")
	}
	if c.TimeoutBackoff != 0 && c.TimeoutBackoff < 1 {
		return fmt.Errorf("pipeline: TimeoutBackoff %v below 1", c.TimeoutBackoff)
	}
	if c.TimeoutRetries < 0 {
		return fmt.Errorf("pipeline: TimeoutRetries %d negative", c.TimeoutRetries)
	}
	if c.Faults != nil {
		// LeaderFailed matches by equality: a pair outside the tree would
		// switch on the faulted machinery and inject nothing.
		for _, lf := range c.Faults.LeaderFailures {
			if lf.Level < 0 || lf.Level >= c.Tree.Depth() || lf.Cluster < 0 || lf.Cluster >= len(c.Tree.Clusters[lf.Level]) {
				return fmt.Errorf("pipeline: leader failure names cluster (%d, %d), which is not in the tree", lf.Level, lf.Cluster)
			}
		}
	}
	switch {
	case len(c.PartialByLevel) > 0:
		return errors.New("pipeline: PartialByLevel is not supported: every cluster below the top aggregates with Partial")
	case c.ModelAttack != nil:
		return errors.New("pipeline: ModelAttack is not supported: Byzantine devices poison their data only")
	case c.OnRound != nil:
		return errors.New("pipeline: OnRound is not supported: the accuracy curve is Result.Curve")
	case c.RotateLeaders:
		return errors.New("pipeline: RotateLeaders is not supported: leaders are fixed for the run")
	case c.Churn != (core.ChurnModel{}):
		return errors.New("pipeline: Churn is not supported: inject device churn through Faults")
	case c.Cohort != 0:
		return errors.New("pipeline: Cohort is not supported: every live device trains every round")
	}
	return nil
}

// RoundTiming holds the paper's per-round pipeline quantities for one global
// round, averaged over bottom clusters.
type RoundTiming struct {
	Round int
	// SigmaW is the waiting time between a cluster's first local upload and
	// the arrival of the next flag model.
	SigmaW float64
	// SigmaP is the partial-aggregation time hidden by pipelining (flag
	// level exclusive to level 1).
	SigmaP float64
	// SigmaG is the global collection+aggregation time.
	SigmaG float64
	// Sigma is the total first-upload-to-global-arrival time.
	Sigma float64
	// Nu is the efficiency indicator (σ_p+σ_g)/σ of Eq. (3).
	Nu float64
}

// RoundAccuracy is one accuracy measurement.
type RoundAccuracy struct {
	Round    int
	Time     simnet.Time
	Accuracy float64
}

// Result is the outcome of an asynchronous run.
type Result struct {
	FinalAccuracy float64
	Curve         []RoundAccuracy
	Timings       []RoundTiming
	// MeanNu is the average efficiency indicator across measured rounds.
	MeanNu float64
	// Duration is the virtual time at which the last completed global round
	// formed (or, for a faulted run that stalled, the drain time).
	Duration simnet.Time
	// Network reports total traffic, including fault-layer drop/duplicate
	// counts. Every actor is registered, so DroppedUnregistered stays 0: a
	// crashed device receives and ignores its traffic.
	Network simnet.Stats
	// MergedGlobals counts stale-global merges performed by devices
	// (correction-factor applications).
	MergedGlobals int
	// CompletedRounds is the number of global rounds actually formed. It
	// equals the configured Rounds on a fault-free run; under injected
	// faults the protocol may legitimately finish fewer (degraded rounds
	// abandoned at every level starve the top).
	CompletedRounds int
	// SubQuorum counts aggregations (any level, top included) that closed
	// below the quorum via the collect timeout — Algorithm 4's "or Timeout"
	// branch actually taken.
	SubQuorum int
	// Abandoned counts (cluster, round) collections given up after the
	// timeout-with-backoff retries expired with zero inputs.
	Abandoned int
	// Omitted counts uploads withheld by omission-Byzantine devices.
	Omitted int
	// StepError is the first error an aggregation or consensus step returned,
	// nil when none did. The engine drops that cluster's round and carries
	// on (upstream deadlines absorb it like any other silent cluster), so
	// this — with abdhfl_step_errors_total — is where such a failure shows.
	StepError error
	// WireBytes is the total encoded bytes shipped across all links: every
	// SendVolume charge, forwards included.
	WireBytes int64
	// FinalParams is the last formed global model's parameter vector; nil
	// when no round completed. Exposed for cross-engine equivalence checks.
	FinalParams tensor.Vector
}
