// Package step is the paper's per-cluster protocol step, written once: take
// the models a cluster collected, run the level's Byzantine-robust rule (BRA)
// or consensus protocol (CBA) over them, record who was kept, and hand back
// the result (Algorithms 3-4 for a partial model, Algorithm 6 for the global
// one). Every engine — the round engines, the discrete-event pipeline, the
// distributed node — is a scheduler around this step: it decides when a
// cluster's inputs are complete and what clock stamps the result, then
// calls Stepper.Aggregate and reports through one Observer.
//
// The package imports no engine. Random streams are derived by the caller
// and passed in, so each engine's stream labels stay where they were.
package step

import (
	"fmt"
	"math"
	"slices"
	"strings"

	"abdhfl/internal/aggregate"
	"abdhfl/internal/codec"
	"abdhfl/internal/consensus"
	"abdhfl/internal/dataset"
	"abdhfl/internal/nn"
	"abdhfl/internal/rng"
	"abdhfl/internal/tensor"
)

// Rule selects the aggregation used at a tier of the tree: exactly one of
// BRA or CBA must be set.
type Rule struct {
	BRA aggregate.Aggregator
	CBA consensus.Protocol
}

// IsCBA reports whether the rule is consensus-based.
func (r Rule) IsCBA() bool { return r.CBA != nil }

// Check reports a rule that does not set exactly one of BRA or CBA; what
// names it in the error.
func (r Rule) Check(what string) error {
	if (r.BRA == nil) == (r.CBA == nil) {
		return fmt.Errorf("%s rule must set exactly one of BRA or CBA", what)
	}
	return nil
}

// Name returns the rule's display name, tagged with its family.
func (r Rule) Name() string {
	if r.CBA != nil {
		return "cba:" + r.CBA.Name()
	}
	if r.BRA != nil {
		return "bra:" + r.BRA.Name()
	}
	return "unset"
}

// Bare returns the aggregator's or protocol's own name, untagged — what the
// flat baseline and the pipeline put in their spans.
func (r Rule) Bare() string {
	if r.CBA != nil {
		return r.CBA.Name()
	}
	return r.BRA.Name()
}

// NeedsBallots reports whether the rule consumes externally collected
// ballots (Input.Ballots) — i.e. whether a distributed engine should run its
// proposal/ballot exchange before the step.
func (r Rule) NeedsBallots() bool {
	_, ok := r.CBA.(consensus.ABA)
	return ok
}

// Input is one cluster's collected models and the coordinates of the step.
type Input struct {
	// Level, Cluster and Round locate the step (level 0 is the top).
	Level, Cluster, Round int
	// Vecs are the collected models in member order; IDs[i] is Vecs[i]'s
	// contributor (device id at the bottom, child-cluster leader id above).
	// Nil IDs means positions are ids.
	Vecs []tensor.Vector
	IDs  []int
	// Dst receives the result and is what Aggregate returns: a BRA
	// aggregates into it, a CBA decides into it. It must have the models'
	// dimension and alias none of them; the step retains neither.
	Dst tensor.Vector

	// The rest configures a CBA and is ignored by a BRA. Rand is the
	// instance's stream, derived by the caller. Members score proposals on
	// Shards[member mod len] (a top node's validation shard) when Shards is
	// set, else on Local[contributor id] (a device's own training data).
	Rand    *rng.RNG
	Workers int
	Shards  []*dataset.Dataset
	Local   []*dataset.Dataset
	// Byzantine marks contributor ids that deviate inside the protocol (only
	// model attackers do; data poisoners follow it honestly, the paper's
	// Table V note). Nil marks nobody.
	Byzantine map[int]bool
	// Ballots optionally injects wire-collected member ballots.
	Ballots *consensus.BallotSet
}

// Verdict is one step's filtering outcome. The id slices are the stepper's
// reused buffers, valid until its next Aggregate — the rule
// telemetry.FilterDecision already has — and are filled only when the
// stepper records verdicts.
type Verdict struct {
	// Rule is the display name the step reports: a BRA's own name, a CBA's
	// tagged "cba:" one.
	Rule string
	// Kept entered the result at full weight, Clipped at reduced weight,
	// Discarded not at all.
	Kept, Clipped, Discarded []int
	// Excluded counts the proposals a CBA ruled out (zero for a BRA),
	// whether or not verdicts are recorded.
	Excluded int
}

// Counts is the pair a span carries: contributions that made it into the
// result (clipped ones still contribute) and those filtered out.
func (v *Verdict) Counts() (kept, filtered int) {
	return len(v.Kept) + len(v.Clipped), len(v.Discarded)
}

// Comm is the communication a CBA step spent agreeing: full-model messages
// and scalar ones (votes, scores). A BRA step reports zero — its uploads and
// broadcast depend on the caller's topology and are the caller's to count.
type Comm struct {
	ModelTransfers, ScalarMessages int
}

// Stepper is one actor's working memory for the step: the aggregation
// scratch and its filter audit, the verdict's id buffers, the consensus
// context and the evaluation pool validators score on. Aggregate allocates
// nothing of its own in the steady state. A Stepper serves one goroutine;
// concurrent actors (the engines of a node cluster) each own one and may
// share an Observer.
type Stepper struct {
	obs     *Observer
	scratch *aggregate.Scratch
	audit   aggregate.FilterAudit
	pool    *nn.EvalPool
	ctx     consensus.Context
	byz     map[int]bool
	in      Input // the CBA step in flight, read by the validators
	shardFn consensus.Validator
	localFn consensus.Validator

	record                bool
	kept, clipped, disced []int
	// cbaName is the last CBA verdict's tagged rule name, built once and
	// not on every step.
	cbaName string
}

// NewStepper returns a stepper reporting to obs (nil reports nowhere) whose
// kernels fan out over at most workers goroutines and whose validators score
// on models borrowed from pool, which may be shared with other users of the
// same model shape. It records verdicts when obs has a consumer for them;
// verdicts forces recording regardless, for callers that ship the verdict
// themselves.
func NewStepper(obs *Observer, workers int, pool *nn.EvalPool, verdicts bool) *Stepper {
	s := &Stepper{
		obs:     obs,
		scratch: aggregate.NewScratch(workers),
		pool:    pool,
		record:  verdicts || obs.wantsVerdicts(),
	}
	if s.record {
		s.scratch.Audit = &s.audit
	}
	s.shardFn = func(member int, model tensor.Vector) float64 {
		return s.score(model, s.in.Shards[member%len(s.in.Shards)])
	}
	s.localFn = func(member int, model tensor.Vector) float64 {
		return s.score(model, s.in.Local[contributor(s.in.IDs, member)])
	}
	return s
}

// Records reports whether the stepper fills its verdicts' id lists — whether
// collecting contributor ids for Input.IDs is worth a caller's while.
func (s *Stepper) Records() bool { return s.record }

// score is a proposal's accuracy on data, on a pooled evaluation model so the
// n×n scorings of a voting round neither allocate nor contend; it is safe
// for the consensus layer's parallel fan-out.
func (s *Stepper) score(model tensor.Vector, data *dataset.Dataset) float64 {
	e := s.pool.Get()
	// The same call as a deferred s.pool.Put(e), in a form whose code size
	// keeps what links after this package where it was: internal/topology's
	// NewECSM takes longer at another address mod 64 (`make kernel-addrs`).
	defer func() { s.pool.Put(e) }()
	e.Model.SetParams(model)
	return nn.AccuracyWS(e.Model, e.WS, data)
}

func contributor(ids []int, i int) int {
	if ids == nil {
		return i
	}
	return ids[i]
}

// Aggregate runs rule over in.Vecs, publishes the verdict through the
// stepper's observer and returns the result, the verdict and the agreement's
// communication. An error is counted by the observer and returned; what to
// do with the cluster's round is the caller's policy.
func (s *Stepper) Aggregate(rule Rule, in Input) (tensor.Vector, Verdict, Comm, error) {
	// The stepper's own copy keeps in off the heap: the validators reach it
	// through s, and it is dropped again so no input outlives its step.
	s.in = in
	out, v, comm, err := s.run(rule, &s.in)
	s.in = Input{}
	if err != nil {
		s.obs.failed(in.Level, fmt.Errorf("level %d cluster %d round %d: %w", in.Level, in.Cluster, in.Round, err))
		return nil, Verdict{}, Comm{}, err
	}
	s.obs.publish(in.Level, in.Cluster, in.Round, &v)
	return out, v, comm, nil
}

func (s *Stepper) run(rule Rule, in *Input) (tensor.Vector, Verdict, Comm, error) {
	if len(in.Vecs) == 0 {
		return nil, Verdict{}, Comm{}, fmt.Errorf("cluster (%d,%d) received no models", in.Level, in.Cluster)
	}
	if len(in.Dst) != len(in.Vecs[0]) {
		return nil, Verdict{}, Comm{}, fmt.Errorf("cluster (%d,%d) destination dim %d, want %d", in.Level, in.Cluster, len(in.Dst), len(in.Vecs[0]))
	}
	if !rule.IsCBA() {
		if err := rule.BRA.AggregateInto(in.Dst, s.scratch, in.Vecs); err != nil {
			return nil, Verdict{}, Comm{}, err
		}
		return in.Dst, s.auditVerdict(in.IDs), Comm{}, nil
	}
	s.ctx = consensus.Context{
		Members:   len(in.Vecs),
		Byzantine: s.protocolByzantine(in),
		Validator: s.localFn,
		Rand:      in.Rand,
		Workers:   in.Workers,
		Round:     in.Round,
		Ballots:   in.Ballots,
	}
	if in.Shards != nil {
		s.ctx.Validator = s.shardFn
	}
	st, err := rule.CBA.AgreeInto(in.Dst, &s.ctx, in.Vecs)
	if err != nil {
		return nil, Verdict{}, Comm{}, err
	}
	s.obs.consensus(st)
	comm := Comm{ModelTransfers: st.ModelTransfers, ScalarMessages: st.Messages - st.ModelTransfers}
	return in.Dst, s.consensusVerdict(rule, in, st.Excluded), comm, nil
}

// protocolByzantine maps contributor-level Byzantine flags onto protocol
// member indices.
func (s *Stepper) protocolByzantine(in *Input) map[int]bool {
	if in.Byzantine == nil {
		return nil
	}
	if s.byz == nil {
		s.byz = make(map[int]bool)
	}
	clear(s.byz)
	for i := range in.Vecs {
		if in.Byzantine[contributor(in.IDs, i)] {
			s.byz[i] = true
		}
	}
	return s.byz
}

// auditVerdict turns the scratch audit of the BRA that just ran into a
// verdict over contributor ids.
func (s *Stepper) auditVerdict(ids []int) Verdict {
	if !s.record {
		return Verdict{}
	}
	s.kept, s.clipped, s.disced = s.kept[:0], s.clipped[:0], s.disced[:0]
	for i, d := range s.audit.Decisions {
		id := contributor(ids, i)
		switch d {
		case aggregate.DecisionKept:
			s.kept = append(s.kept, id)
		case aggregate.DecisionClipped:
			s.clipped = append(s.clipped, id)
		default:
			s.disced = append(s.disced, id)
		}
	}
	return Verdict{Rule: s.audit.Rule, Kept: s.kept, Clipped: s.clipped, Discarded: s.disced}
}

// consensusVerdict turns a CBA's exclusions into a verdict: excluded
// proposals are discarded contributors, the rest kept. The protocols sort
// excluded, so a two-pointer sweep splits the membership.
func (s *Stepper) consensusVerdict(rule Rule, in *Input, excluded []int) Verdict {
	v := Verdict{Excluded: len(excluded)}
	if !s.record {
		return v
	}
	if strings.TrimPrefix(s.cbaName, "cba:") != rule.CBA.Name() {
		s.cbaName = rule.Name()
	}
	v.Rule = s.cbaName
	s.kept, s.disced = s.kept[:0], s.disced[:0]
	ei := 0
	for i := range in.Vecs {
		if ei < len(excluded) && excluded[ei] == i {
			s.disced = append(s.disced, contributor(in.IDs, i))
			ei++
		} else {
			s.kept = append(s.kept, contributor(in.IDs, i))
		}
	}
	v.Kept, v.Discarded = s.kept, s.disced
	return v
}

// ShardBallot computes one member's validation-voting ballot over the
// proposals with the shard validator and rule's margin — the bits a remote
// top-cluster member ships back during the ballot exchange. A process
// calling this for its own member index produces exactly the bits Aggregate
// would compute centrally.
func (s *Stepper) ShardBallot(rule Rule, shards []*dataset.Dataset, member int, proposals []tensor.Vector) []bool {
	s.in = Input{Shards: shards}
	defer func() { s.in = Input{} }()
	margin := 0.0
	if aba, ok := rule.CBA.(consensus.ABA); ok {
		margin = aba.Margin
	}
	return consensus.Ballot(&consensus.Context{Members: len(proposals), Validator: s.shardFn}, member, margin, proposals)
}

// ApplyQuorum deterministically subsamples a cluster's available models down
// to ceil(phi*len), simulating a leader that stops waiting once the quorum
// is reached (Algorithm 4's φ_ℓ × C_ℓ,i condition). The draw comes from
// roundRNG's "quorum-<lvl>-<ci>" stream.
func ApplyQuorum(phi float64, roundRNG *rng.RNG, lvl, ci int, vecs []tensor.Vector, ids []int) ([]tensor.Vector, []int) {
	if phi == 0 || phi >= 1 || len(vecs) <= 1 {
		return vecs, ids
	}
	need := max(int(math.Ceil(phi*float64(len(vecs)))), 1)
	if need >= len(vecs) {
		return vecs, ids
	}
	pick := roundRNG.DeriveDecimals("quorum-", lvl, ci).Choice(len(vecs), need)
	outV := make([]tensor.Vector, need)
	outI := make([]int, need)
	for k, i := range pick {
		outV[k] = vecs[i]
		outI[k] = ids[i]
	}
	return outV, outI
}

// ModelSizes returns the layer sizes of a run's model — input width, the
// hidden widths (nil selects [32]), output width — as nn.New takes them.
func ModelSizes(hidden []int) []int {
	if len(hidden) == 0 {
		hidden = []int{32}
	}
	sizes := append([]int{dataset.Dim}, hidden...)
	return append(sizes, dataset.NumClasses)
}

// Hop carries v across one model transfer in place: c encodes it against
// s.Ref into a send buffer borrowed from Store and decodes those bytes back
// into v, the value every receiver of the transfer holds. It returns the
// wire size in bytes. Every engine's codec hop is this call.
func Hop(c codec.Codec, v tensor.Vector, s *codec.Scratch) (int, error) {
	n := c.WireBytes(len(v))
	b := slices.Grow(Store.Buf(), n)[:n]
	n, err := c.EncodeInto(b, v, s)
	if err == nil {
		err = c.DecodeInto(v, b[:n], s)
	}
	Store.PutBuf(b)
	return n, err
}
