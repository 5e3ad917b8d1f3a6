// Package abdhfl is the public entry point of the ABD-HFL reproduction: an
// asynchronous, Byzantine-resistant, decentralized hierarchical federated
// learning simulator (An, Potop-Butucaru, Tixeuil, Fdida — hal-04627430).
//
// A Scenario describes a complete experiment — topology, data distribution,
// attack, aggregation rules — in the vocabulary of the paper's evaluation
// section; Build materialises it (datasets, tree, poisoning) and the Run*
// functions execute the hierarchical run, the vanilla star-topology
// baseline, or the asynchronous pipeline workflow. The cmd/ tools,
// examples/, and the benchmark harness are all thin layers over this
// package.
package abdhfl

import (
	"fmt"

	"abdhfl/internal/aggregate"
	"abdhfl/internal/attack"
	"abdhfl/internal/codec"
	"abdhfl/internal/consensus"
	"abdhfl/internal/core"
	"abdhfl/internal/dataset"
	"abdhfl/internal/nn"
	"abdhfl/internal/pipeline"
	"abdhfl/internal/rng"
	"abdhfl/internal/telemetry"
	"abdhfl/internal/topology"
	"abdhfl/internal/trace"
)

// Distribution selects how training data is split across clients.
type Distribution string

// Supported distributions.
const (
	// DistIID shuffles and splits the pool equally (the paper's IID case).
	DistIID Distribution = "iid"
	// DistNonIID gives each client exactly two labels (the paper's extreme
	// non-IID case).
	DistNonIID Distribution = "noniid"
	// DistDirichlet skews label proportions by a symmetric Dirichlet draw
	// (extension beyond the paper).
	DistDirichlet Distribution = "dirichlet"
)

// Attack selects the Byzantine behaviour of malicious clients.
type Attack string

// Supported attacks (Table I).
const (
	AttackNone Attack = "none"
	// AttackType1 sets all training labels to 9 (data poisoning Type I).
	AttackType1 Attack = "type1"
	// AttackType2 randomises training labels (data poisoning Type II).
	AttackType2 Attack = "type2"
	// AttackBackdoor implants a trigger patch mapped to class 0.
	AttackBackdoor Attack = "backdoor"
	// AttackSignFlip submits negated, amplified model updates.
	AttackSignFlip Attack = "signflip"
	// AttackNoise submits updates with large Gaussian noise.
	AttackNoise Attack = "noise"
	// AttackALE is A-Little-Is-Enough (mean - z*std).
	AttackALE Attack = "ale"
	// AttackIPM is Inner-Product Manipulation (-ε*mean).
	AttackIPM Attack = "ipm"
)

// Placement selects where malicious devices sit in the tree.
type Placement string

// Supported placements.
const (
	// PlacePrefix marks the lowest client ids malicious — the paper's
	// evaluation setting ("clients are ordered by client id").
	PlacePrefix Placement = "prefix"
	// PlaceRandom scatters malicious clients uniformly.
	PlaceRandom Placement = "random"
	// PlaceAdversarial uses the worst-case bound-attaining placement of the
	// tolerance theory (Theorem 2).
	PlaceAdversarial Placement = "adversarial"
)

// Topology selects the tree-construction model.
type Topology string

// Supported topologies.
const (
	// TopologyECSM is the Equal Cluster Size Model of the evaluation.
	TopologyECSM Topology = "ecsm"
	// TopologyACSM is the Arbitrary Cluster Size Model of Appendix C:
	// random cluster sizes in [ACSMMinCluster, ACSMMaxCluster] over
	// ACSMDevices devices.
	TopologyACSM Topology = "acsm"
)

// Scenario is a complete experiment description. Zero fields are filled by
// WithDefaults; the defaults follow the paper's Appendix D (Table VII) with
// a reduced dataset size so a full Table V regeneration stays laptop-scale.
type Scenario struct {
	// Topology selects ECSM (default) or ACSM tree construction.
	Topology Topology
	// ECSM shape: Levels tiers, ClusterSize members per cluster, TopNodes at
	// the top. The paper uses 3 / 4 / 4 (64 clients).
	Levels, ClusterSize, TopNodes int
	// ACSM shape (Topology == TopologyACSM): total devices and the random
	// per-cluster size range.
	ACSMDevices, ACSMMinCluster, ACSMMaxCluster int

	Distribution   Distribution
	DirichletAlpha float64

	Attack            Attack
	MaliciousFraction float64
	Placement         Placement

	// Learning settings.
	Rounds           int
	LocalIters       int
	BatchSize        int
	LearningRate     float64
	SamplesPerClient int
	TestSamples      int
	// ValidationSamples is the pool split across top nodes for voting.
	ValidationSamples int

	// Aggregator is the BRA registry name used at intermediate levels (and
	// by the vanilla baseline): "multi-krum", "median", ...
	Aggregator string
	// TopProtocol is the CBA used at the top — any consensus registry name
	// ("voting", "committee", "rotating-committee", "approx-agreement",
	// "pbft", "aba"), or "" for a BRA top.
	TopProtocol string
	// Scheme (1-4, Table III) overrides the Aggregator/TopProtocol split;
	// zero keeps the explicit configuration (which matches Scheme 1 with
	// the defaults).
	Scheme int

	Quorum    float64
	EvalEvery int
	Seed      uint64
	Workers   int
	// Codec selects the update codec by registry name ("identity", "int8",
	// "topk", "delta"); every model transfer then crosses one encode→decode
	// hop and wire bytes are accounted. Empty — the default — runs the
	// uncompressed model stream exactly as before.
	Codec string
	// Cohort is the number of devices deterministically sampled to train per
	// bottom cluster per round (cross-device client sampling); zero — the
	// default — trains every device, reproducing the paper's full-participation
	// evaluation bit-for-bit.
	Cohort int
}

// WithDefaults returns a copy of s with zero fields replaced by the paper's
// evaluation settings (reduced sample counts noted in DESIGN.md).
func (s Scenario) WithDefaults() Scenario {
	if s.Topology == "" {
		s.Topology = TopologyECSM
	}
	if s.ACSMDevices == 0 {
		s.ACSMDevices = 60
	}
	if s.ACSMMinCluster == 0 {
		s.ACSMMinCluster = 3
	}
	if s.ACSMMaxCluster == 0 {
		s.ACSMMaxCluster = 6
	}
	if s.Levels == 0 {
		s.Levels = 3
	}
	if s.ClusterSize == 0 {
		s.ClusterSize = 4
	}
	if s.TopNodes == 0 {
		s.TopNodes = 4
	}
	if s.Distribution == "" {
		s.Distribution = DistIID
	}
	if s.DirichletAlpha == 0 {
		s.DirichletAlpha = 0.5
	}
	if s.Attack == "" {
		s.Attack = AttackNone
	}
	if s.Placement == "" {
		s.Placement = PlacePrefix
	}
	if s.Rounds == 0 {
		s.Rounds = 200
	}
	if s.LocalIters == 0 {
		s.LocalIters = 5
	}
	if s.BatchSize == 0 {
		s.BatchSize = 32
	}
	if s.LearningRate == 0 {
		s.LearningRate = 0.1
	}
	if s.SamplesPerClient == 0 {
		s.SamplesPerClient = 300
	}
	if s.TestSamples == 0 {
		s.TestSamples = 2000
	}
	if s.ValidationSamples == 0 {
		s.ValidationSamples = 1000
	}
	if s.Aggregator == "" {
		s.Aggregator = "multi-krum"
	}
	if s.TopProtocol == "" && s.Scheme == 0 {
		s.TopProtocol = "voting"
	}
	if s.EvalEvery == 0 {
		s.EvalEvery = 5
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	return s
}

// Clients returns the number of bottom-level devices the scenario implies.
func (s Scenario) Clients() int {
	if s.Topology == TopologyACSM {
		return s.ACSMDevices
	}
	n := s.TopNodes
	for l := 1; l < s.Levels-1; l++ {
		n *= s.ClusterSize
	}
	return n * s.ClusterSize
}

// Materials is a materialised scenario: everything the engines consume.
type Materials struct {
	Scenario Scenario
	Tree     *topology.Tree
	// Shards are the per-client training sets with data poisoning already
	// applied to Byzantine clients.
	Shards           []*dataset.Dataset
	TestData         *dataset.Dataset
	ValidationShards []*dataset.Dataset
	Byzantine        map[int]bool
	ModelAttack      attack.ModelPoison
	Local            nn.TrainConfig
	PartialRule      core.LevelRule
	GlobalRule       core.LevelRule
	// Telemetry, when set before a Run* call, is passed through to the
	// engines so counters, gauges, and histograms accumulate there (see
	// internal/telemetry); OnFilter likewise receives every aggregation's
	// per-(level, cluster, round) filter verdict. Both default to off.
	Telemetry *telemetry.Registry
	OnFilter  func(telemetry.FilterDecision)
	// Trace, when set before a Run* call, receives the engines' causal spans
	// (see internal/trace); nil disables emission entirely.
	Trace *trace.Tracer
	// Codec is the resolved update codec (nil when Scenario.Codec is empty),
	// passed to every engine the materials drive.
	Codec codec.Codec
}

// Build materialises a scenario deterministically from its seed.
func Build(s Scenario) (*Materials, error) {
	s = s.WithDefaults()
	r := rng.New(s.Seed)
	var tree *topology.Tree
	var err error
	switch s.Topology {
	case TopologyECSM:
		tree, err = topology.NewECSM(s.Levels, s.ClusterSize, s.TopNodes)
	case TopologyACSM:
		tree, err = topology.NewACSM(r.Derive("tree"), s.ACSMDevices, s.ACSMMinCluster, s.ACSMMaxCluster, s.TopNodes)
	default:
		err = fmt.Errorf("abdhfl: unknown topology %q", s.Topology)
	}
	if err != nil {
		return nil, err
	}
	devices := tree.NumDevices()
	gen := dataset.DefaultGen()
	pool := dataset.Generate(r.Derive("train"), devices*s.SamplesPerClient, gen)

	var shards []*dataset.Dataset
	switch s.Distribution {
	case DistIID:
		shards = dataset.PartitionIID(r.Derive("split"), pool, devices)
	case DistNonIID:
		shards = dataset.PartitionNonIID(r.Derive("split"), pool, devices, 2)
	case DistDirichlet:
		shards = dataset.PartitionDirichlet(r.Derive("split"), pool, devices, s.DirichletAlpha)
	default:
		return nil, fmt.Errorf("abdhfl: unknown distribution %q", s.Distribution)
	}

	test := dataset.Generate(r.Derive("test"), s.TestSamples, gen)
	valPool := dataset.Generate(r.Derive("validation"), s.ValidationSamples, gen)
	valShards := dataset.PartitionIID(r.Derive("valsplit"), valPool, tree.Top().Size())

	m := &Materials{
		Scenario:         s,
		Tree:             tree,
		Shards:           shards,
		TestData:         test,
		ValidationShards: valShards,
		Local: nn.TrainConfig{
			LearningRate: s.LearningRate,
			BatchSize:    s.BatchSize,
			Iterations:   s.LocalIters,
		},
	}
	if err := m.placeByzantine(r.Derive("place")); err != nil {
		return nil, err
	}
	if err := m.applyAttack(r.Derive("poison")); err != nil {
		return nil, err
	}
	if err := m.wireRules(); err != nil {
		return nil, err
	}
	if s.Codec != "" {
		if m.Codec, err = codec.ByName(s.Codec); err != nil {
			return nil, err
		}
	}
	return m, nil
}

func (m *Materials) placeByzantine(r *rng.RNG) error {
	s := m.Scenario
	if !(s.MaliciousFraction >= 0 && s.MaliciousFraction <= 1) { // a NaN fails every comparison
		return fmt.Errorf("abdhfl: malicious fraction %v out of [0,1]", s.MaliciousFraction)
	}
	devices := m.Tree.NumDevices()
	k := int(s.MaliciousFraction * float64(devices))
	switch s.Placement {
	case PlacePrefix:
		m.Byzantine = topology.PrefixPlacement(m.Tree, k)
	case PlaceRandom:
		m.Byzantine = map[int]bool{}
		for _, id := range r.Choice(devices, k) {
			m.Byzantine[id] = true
		}
	case PlaceAdversarial:
		// Start from the bound-attaining placement of Theorem 2 and trim or
		// top up (with low ids, prefix-style) to exactly k devices.
		tol := topology.Tolerance{Gamma1: 0.25, Gamma2: 0.25}
		full := tol.AdversarialPlacement(m.Tree)
		m.Byzantine = map[int]bool{}
		for id := 0; id < devices && len(m.Byzantine) < k; id++ {
			if full[id] {
				m.Byzantine[id] = true
			}
		}
		for id := 0; id < devices && len(m.Byzantine) < k; id++ {
			m.Byzantine[id] = true
		}
	default:
		return fmt.Errorf("abdhfl: unknown placement %q", s.Placement)
	}
	return nil
}

func (m *Materials) applyAttack(r *rng.RNG) error {
	var data attack.DataPoison
	switch m.Scenario.Attack {
	case AttackNone:
		return nil
	case AttackType1:
		data = attack.LabelFlipAll{Target: 9}
	case AttackType2:
		data = attack.LabelFlipRandom{}
	case AttackBackdoor:
		data = attack.DefaultBackdoor()
	case AttackSignFlip:
		m.ModelAttack = attack.SignFlip{Scale: 3}
		return nil
	case AttackNoise:
		m.ModelAttack = attack.GaussianNoise{Stddev: 2}
		return nil
	case AttackALE:
		m.ModelAttack = attack.ALE{Z: 1.2}
		return nil
	case AttackIPM:
		m.ModelAttack = attack.IPM{Epsilon: 0.8}
		return nil
	default:
		return fmt.Errorf("abdhfl: unknown attack %q", m.Scenario.Attack)
	}
	for id := range m.Byzantine {
		data.Poison(r.Derive(fmt.Sprintf("dev-%d", id)), m.Shards[id])
	}
	return nil
}

func (m *Materials) wireRules() error {
	s := m.Scenario
	bra, err := aggregate.ByName(s.Aggregator)
	if err != nil {
		return err
	}
	var cba consensus.Protocol
	if s.TopProtocol != "" {
		cba, err = consensus.ByName(s.TopProtocol)
		if err != nil {
			return err
		}
	}
	if s.Scheme != 0 {
		if cba == nil {
			cba = consensus.Voting{}
		}
		partial, global, err := core.Scheme(s.Scheme).Rules(bra, cba)
		if err != nil {
			return err
		}
		m.PartialRule, m.GlobalRule = partial, global
		return nil
	}
	m.PartialRule = core.LevelRule{BRA: bra}
	if cba != nil {
		m.GlobalRule = core.LevelRule{CBA: cba}
	} else {
		m.GlobalRule = core.LevelRule{BRA: bra}
	}
	return nil
}

// CoreConfig assembles the round-engine configuration for the given engine
// seed, exposed so callers can tweak engine-level knobs (churn, quorum,
// workers) the Scenario vocabulary does not cover before calling
// core.RunHFL directly.
func (m *Materials) CoreConfig(seed uint64) core.Config {
	return core.Config{
		Tree:             m.Tree,
		Rounds:           m.Scenario.Rounds,
		Local:            m.Local,
		Partial:          m.PartialRule,
		Global:           m.GlobalRule,
		ClientData:       m.Shards,
		TestData:         m.TestData,
		ValidationShards: m.ValidationShards,
		Byzantine:        m.Byzantine,
		ModelAttack:      m.ModelAttack,
		Seed:             seed,
		EvalEvery:        m.Scenario.EvalEvery,
		Workers:          m.Scenario.Workers,
		Quorum:           m.Scenario.Quorum,
		Cohort:           m.Scenario.Cohort,
		Telemetry:        m.Telemetry,
		OnFilter:         m.OnFilter,
		Trace:            m.Trace,
		Codec:            m.Codec,
	}
}

// RunHFL executes the ABD-HFL round engine on the materials with the given
// engine seed (datasets stay fixed; the engine seed varies repeats).
func (m *Materials) RunHFL(seed uint64) (*core.Result, error) {
	return core.RunHFL(m.CoreConfig(seed))
}

// RunVanilla executes the star-topology baseline with the scenario's BRA
// rule as the central aggregator.
func (m *Materials) RunVanilla(seed uint64) (*core.Result, error) {
	bra, err := aggregate.ByName(m.Scenario.Aggregator)
	if err != nil {
		return nil, err
	}
	return core.RunVanilla(core.VanillaConfig{
		Rounds:      m.Scenario.Rounds,
		Local:       m.Local,
		Aggregator:  bra,
		ClientData:  m.Shards,
		TestData:    m.TestData,
		Byzantine:   m.Byzantine,
		ModelAttack: m.ModelAttack,
		Seed:        seed,
		EvalEvery:   m.Scenario.EvalEvery,
		Workers:     m.Scenario.Workers,
		Cohort:      m.Scenario.Cohort,
		Telemetry:   m.Telemetry,
		OnFilter:    m.OnFilter,
		Trace:       m.Trace,
		Codec:       m.Codec,
	})
}

// PipelineConfig assembles the asynchronous-engine configuration for the
// given flag level, exposed (like CoreConfig) so callers can tweak
// pipeline-only knobs before calling pipeline.Run directly.
func (m *Materials) PipelineConfig(seed uint64, flagLevel int, timing pipeline.Timing) (pipeline.Config, error) {
	bra, err := aggregate.ByName(m.Scenario.Aggregator)
	if err != nil {
		return pipeline.Config{}, err
	}
	voting := consensus.Voting{}
	cfg := pipeline.Config{
		Tree:             m.Tree,
		Rounds:           m.Scenario.Rounds,
		FlagLevel:        flagLevel,
		Quorum:           m.Scenario.Quorum,
		Local:            m.Local,
		PartialBRA:       bra,
		TopVoting:        &voting,
		ClientData:       m.Shards,
		TestData:         m.TestData,
		ValidationShards: m.ValidationShards,
		Byzantine:        m.Byzantine,
		Timing:           timing,
		Seed:             seed,
		EvalEvery:        m.Scenario.EvalEvery,
		Workers:          m.Scenario.Workers,
		Telemetry:        m.Telemetry,
		OnFilter:         m.OnFilter,
		Trace:            m.Trace,
		Codec:            m.Codec,
	}
	// A non-voting top consensus (e.g. the randomized "aba") carries over to
	// the pipeline's top actor; plain voting keeps the historical TopVoting
	// wiring so existing runs stay byte-identical.
	if cba := m.GlobalRule.CBA; cba != nil {
		if _, isVoting := cba.(consensus.Voting); !isVoting {
			cfg.TopCBA = cba
		}
	}
	return cfg, nil
}

// RunPipeline executes the asynchronous pipeline workflow with the given
// flag level, using the scenario's intermediate BRA rule and a voting top.
func (m *Materials) RunPipeline(seed uint64, flagLevel int, timing pipeline.Timing) (*pipeline.Result, error) {
	cfg, err := m.PipelineConfig(seed, flagLevel, timing)
	if err != nil {
		return nil, err
	}
	return pipeline.Run(cfg)
}

// Run is the one-call convenience API: build the scenario and run the
// ABD-HFL round engine once.
func Run(s Scenario) (*core.Result, error) {
	m, err := Build(s)
	if err != nil {
		return nil, err
	}
	return m.RunHFL(s.WithDefaults().Seed)
}

// RunBaseline is the one-call vanilla-FL counterpart of Run.
func RunBaseline(s Scenario) (*core.Result, error) {
	m, err := Build(s)
	if err != nil {
		return nil, err
	}
	return m.RunVanilla(s.WithDefaults().Seed)
}
