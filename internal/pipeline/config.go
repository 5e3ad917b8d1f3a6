// Package pipeline implements ABD-HFL's asynchronous pipeline learning
// workflow on top of the discrete-event simulator: devices and cluster
// leaders are actors exchanging models over simulated links; a configurable
// flag level ℓ_F releases partial models downwards so the next global round
// of local training starts while global aggregation is still in flight, and
// stale global models are merged into in-progress local models with the
// correction factor of Eq. (1). The engine measures, per round, the paper's
// waiting time σ_w, pipelined aggregation time σ_p, global aggregation time
// σ_g, and the efficiency indicator ν = (σ_p+σ_g)/σ of Eq. (3).
package pipeline

import (
	"errors"
	"fmt"

	"abdhfl/internal/aggregate"
	"abdhfl/internal/codec"
	"abdhfl/internal/consensus"
	"abdhfl/internal/dataset"
	"abdhfl/internal/fault"
	"abdhfl/internal/nn"
	"abdhfl/internal/simnet"
	"abdhfl/internal/telemetry"
	"abdhfl/internal/tensor"
	"abdhfl/internal/topology"
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

// Config describes one asynchronous pipeline run.
type Config struct {
	Tree *topology.Tree
	// Rounds of global aggregation to complete.
	Rounds int
	// FlagLevel ℓ_F in [0, bottom-1]: the level whose partial models are
	// disseminated as flag models. 0 means the global model itself is the
	// flag (no pipelining of the top).
	FlagLevel int
	// Quorum φ: fraction of a cluster's inputs a leader waits for; zero
	// selects 1.
	Quorum float64
	// CollectTimeout is Algorithm 4's "or Timeout" branch (the
	// semi-synchronous regime of SHFL): a leader that has waited this many
	// virtual ms since its first arrival for a round aggregates whatever it
	// holds, even below the quorum. Zero disables timeouts (pure quorum).
	//
	// When Faults are enabled, leaders additionally arm the deadline as soon
	// as they learn a round exists (forwarding its flag model), so a leader
	// whose inputs are ALL lost still makes progress instead of waiting for
	// a first arrival that never comes.
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

	Local  nn.TrainConfig
	Hidden []int

	// PartialBRA aggregates intermediate clusters. TopCBA (any registered
	// consensus protocol, e.g. the randomized "aba") or TopVoting selects a
	// consensus at the top; otherwise TopBRA is used. TopCBA wins when both
	// consensus fields are set.
	PartialBRA aggregate.Aggregator
	TopBRA     aggregate.Aggregator
	TopVoting  *consensus.Voting
	TopCBA     consensus.Protocol

	ClientData       []*dataset.Dataset
	TestData         *dataset.Dataset
	ValidationShards []*dataset.Dataset

	Byzantine map[int]bool
	// Crashed devices never train or upload — failure injection for
	// Assumption 2: as long as every cluster retains a quorum (φ) of live
	// members, rounds still complete.
	Crashed map[int]bool

	Timing  Timing
	Latency simnet.LatencyModel
	// Bandwidth, if non-nil, models per-link capacity (volume units per
	// virtual ms); model transfers then add size/bandwidth to their delay —
	// the per-level bandwidth factor of Appendix E. Nil = infinite. (To charge
	// a byte rate plus per-message overhead, wrap Latency in simnet.Bandwidth
	// instead: with a Codec set, message volumes are wire bytes.)
	Bandwidth func(from, to simnet.NodeID) float64
	Alpha     AlphaPolicy

	// Codec, when non-nil, passes every model transfer through one
	// encode→decode hop at the sender that forms it (device upload, partial,
	// and the global/flag dissemination; pure forwards re-ship the same bytes
	// without a second hop) and charges wire bytes — instead of raw element
	// counts — as the message volume the latency/bandwidth models see. The
	// Delta codec's reference is the engine's last formed global model (the
	// round's start parameters for device uploads). Nil and codec.Identity
	// reproduce the uncompressed model stream bit-for-bit; only the volume
	// units change under Identity.
	Codec codec.Codec

	Seed uint64
	// EvalEvery rounds between accuracy evaluations; zero selects 1.
	EvalEvery int
	// Telemetry, when non-nil, receives the run's metrics: completed-round
	// counters, the σ_w/σ_p/σ_g/σ and ν distributions, stale-global
	// staleness and merge counts, accuracy, consensus vote tallies, and
	// per-level filter kept/clipped/discarded counts. Nil disables all
	// instrumentation.
	Telemetry *telemetry.Registry
	// OnFilter, if non-nil, receives every aggregation step's filtering
	// verdict (contributor ids kept/clipped/discarded per level, cluster,
	// and round). The id slices are reused between calls; consumers must
	// copy or reduce them before returning.
	OnFilter func(telemetry.FilterDecision)
	// Workers is the number of goroutines that run devices' local training,
	// and bounds those used for consensus validator scoring, test-set
	// evaluation and the robust-aggregation kernels; zero selects GOMAXPROCS.
	// Training leaves the event loop — a device's SGD is dispatched when the
	// device starts, in virtual time, and joined at its finish timer, so the
	// overlap the pipeline simulates is also real — because it is a pure
	// function of the start vector, the round, the device id and the shard.
	// Everything observable (stale-global merges, spans, metrics, codec hops,
	// sends, aggregation) stays on the single-threaded loop in event order,
	// so results are bit-identical for every value.
	Workers int
	// Trace, when non-nil, receives causal spans for every round: device
	// train spans, counted uplink/partial message hops, per-cluster
	// aggregations (with rule and kept/filtered counts), global formation,
	// and round envelopes — all on the virtual clock, byte-identical
	// across Workers and tracer shard counts. Nil disables emission
	// entirely (zero overhead).
	Trace *trace.Tracer
	// Flight, when non-nil, mirrors every delivered simulator message into
	// a bounded ring buffer; chaostest dumps its tail when an invariant
	// trips.
	Flight *trace.FlightRecorder
}

// Validate reports configuration errors.
func (c *Config) Validate() error {
	if c.Tree == nil {
		return errors.New("pipeline: Tree is nil")
	}
	if err := c.Tree.Validate(); err != nil {
		return err
	}
	if c.Rounds <= 0 {
		return errors.New("pipeline: Rounds must be positive")
	}
	if c.FlagLevel < 0 || c.FlagLevel > c.Tree.Bottom()-1 {
		return fmt.Errorf("pipeline: FlagLevel %d out of [0, %d]", c.FlagLevel, c.Tree.Bottom()-1)
	}
	if len(c.ClientData) != c.Tree.NumDevices() {
		return fmt.Errorf("pipeline: %d shards for %d devices", len(c.ClientData), c.Tree.NumDevices())
	}
	if c.TestData == nil || c.TestData.Len() == 0 {
		return errors.New("pipeline: TestData is empty")
	}
	if c.PartialBRA == nil {
		return errors.New("pipeline: PartialBRA is nil")
	}
	if c.TopVoting == nil && c.TopBRA == nil && c.TopCBA == nil {
		return errors.New("pipeline: set TopBRA, TopVoting, or TopCBA")
	}
	if c.TopVoting != nil || c.TopCBA != nil {
		if len(c.ValidationShards) == 0 {
			// The shard validator indexes member % len(ValidationShards); an
			// empty slice would be a mod-by-zero panic mid-simulation.
			return errors.New("pipeline: top consensus requires at least one ValidationShard")
		}
		for i, s := range c.ValidationShards {
			if s == nil || s.Len() == 0 {
				return fmt.Errorf("pipeline: ValidationShards[%d] is empty", i)
			}
		}
	}
	if !(c.Quorum >= 0 && c.Quorum <= 1) { // a NaN fails every comparison
		return fmt.Errorf("pipeline: Quorum %v out of [0,1]", c.Quorum)
	}
	if c.TimeoutBackoff != 0 && c.TimeoutBackoff < 1 {
		return fmt.Errorf("pipeline: TimeoutBackoff %v below 1", c.TimeoutBackoff)
	}
	if c.TimeoutRetries < 0 {
		return fmt.Errorf("pipeline: TimeoutRetries %d negative", c.TimeoutRetries)
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
	// counts and deliveries lost to unregistered (crashed) nodes.
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
	// WireBytes is the total encoded bytes shipped across all links (every
	// SendVolume charge, forwards included) when a Codec is configured; zero
	// without one.
	WireBytes int64
	// FinalParams is the last formed global model's parameter vector; nil
	// when no round completed. Exposed for cross-engine equivalence checks.
	FinalParams tensor.Vector
}
