package core

import (
	"cmp"
	"errors"
	"fmt"
	"time"

	"abdhfl/internal/attack"
	"abdhfl/internal/codec"
	"abdhfl/internal/dataset"
	"abdhfl/internal/nn"
	"abdhfl/internal/rng"
	"abdhfl/internal/step"
	"abdhfl/internal/telemetry"
	"abdhfl/internal/tensor"
	"abdhfl/internal/trace"
)

// VanillaConfig describes a classic star-topology FL run: one central server
// aggregates every client's update with a single rule. It is the baseline of
// the paper's Table V ("Vanilla FL is set with a central server as
// aggregation for all 64 clients").
type VanillaConfig struct {
	Rounds int
	Local  nn.TrainConfig
	Hidden []int
	// Rule is the server's aggregation. A CBA (any registered protocol, e.g.
	// "voting" or the randomized "aba") runs a consensus over the submitted
	// updates instead: contributing clients score every update on their own
	// data and the protocol's decision becomes the round's global model —
	// the star-topology counterpart of the hierarchical engine's CBA levels.
	Rule LevelRule

	ClientData []*dataset.Dataset
	TestData   *dataset.Dataset

	Byzantine   map[int]bool
	ModelAttack attack.ModelPoison

	Seed      uint64
	EvalEvery int
	Workers   int
	// Telemetry and OnFilter mirror Config's fields: metrics registry and
	// per-aggregation filter verdict callback (the star topology reports
	// everything at level 0 with client ids as contributor ids).
	Telemetry *telemetry.Registry
	OnFilter  func(telemetry.FilterDecision)
	// Cohort is the number of clients deterministically sampled to train per
	// round (cross-device FL's client sampling); zero (or >= the client
	// count) trains everyone. The server aggregates only the cohort's
	// updates, and the filter audit reports the sampled client ids.
	Cohort int
	// Codec mirrors Config.Codec: every client upload and the server's
	// broadcast cross one encode→decode hop, with the round's start model as
	// the Delta reference; nil selects codec.Identity.
	Codec codec.Codec
	// Trace mirrors Config.Trace: causal spans on the logical clock (train
	// spans feed the single "global" server aggregation here).
	Trace *trace.Tracer
}

// Validate reports configuration errors.
func (c *VanillaConfig) Validate() error {
	if c.Rounds <= 0 {
		return errors.New("core: vanilla Rounds must be positive")
	}
	if len(c.ClientData) == 0 {
		return errors.New("core: vanilla needs client data")
	}
	if c.TestData == nil || c.TestData.Len() == 0 {
		return errors.New("core: vanilla TestData is empty")
	}
	return c.Rule.Check("core: vanilla")
}

// RunVanilla executes the star-topology baseline.
func RunVanilla(cfg VanillaConfig) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg.Codec = cmp.Or[codec.Codec](cfg.Codec, codec.Identity{})
	root := rng.New(cfg.Seed)
	sizes := step.ModelSizes(cfg.Hidden)
	pool := step.Store.Pool(sizes)
	eval := pool.Get()
	dim := eval.Model.NumParams()

	clients := len(cfg.ClientData)
	workers := tensor.ResolveWorkers(cfg.Workers)
	evalEvery := cfg.EvalEvery
	if evalEvery <= 0 {
		evalEvery = 1
	}
	hcfg := Config{ClientData: cfg.ClientData, Local: cfg.Local, Byzantine: cfg.Byzantine, ModelAttack: cfg.ModelAttack}

	res := &Result{}
	updates := make([]tensor.Vector, clients)
	trainer := newLocalTrainer(pool, dim, workers)
	// Aggregation memory persists across rounds: the stepper keeps the rule's
	// internal buffers warm, and the double-buffered destination lets round r
	// write while round r-1's result is still the read-only training start;
	// its second half holds the initial model until round 1 overwrites it.
	obs := step.NewObserver(cfg.Telemetry, "vanilla", 1, cfg.OnFilter, cfg.Trace)
	st := step.NewStepper(obs, workers, pool, false)
	codecScratch := codec.NewScratch()
	ins := newInstruments(cfg.Telemetry, "vanilla", cfg.Codec, dim)
	ct := newCoreTracer(cfg.Trace, 0, int64(cfg.Codec.WireBytes(dim)))
	globalBufs := [2]tensor.Vector{step.Store.Take(dim), nn.InitParamsInto(step.Store.Take(dim), root.Derive("init"), sizes...)}
	globalParams := globalBufs[1]
	for round := 0; round < cfg.Rounds; round++ {
		roundRNG := root.DeriveDecimal("round-", round)
		ct.beginRound()
		var tRound, tPhase time.Time
		if ins.enabled() {
			tRound = time.Now()
			tPhase = tRound
		}
		trainer.round(hcfg, globalParams, updates, drawVanillaSkip(cfg, roundRNG, clients), roundRNG)
		res.TrainerActivations += len(trainer.active)
		if cfg.ModelAttack != nil {
			applyModelAttack(hcfg, updates, globalParams, roundRNG.Derive("attack"))
		}
		if ct != nil {
			for id, u := range updates {
				if u != nil {
					ct.train(round, id, 0)
				}
			}
		}
		// Client→server uplink: each submitted update crosses one codec hop.
		codecScratch.Ref = globalParams
		for id, u := range updates {
			if u == nil {
				continue
			}
			if _, err := step.Hop(cfg.Codec, u, codecScratch); err != nil {
				return nil, fmt.Errorf("core: vanilla round %d client %d codec: %w", round, id, err)
			}
		}
		if ins.enabled() {
			ins.observePhase(phaseTrain, time.Since(tPhase))
			tPhase = time.Now()
		}
		inputs := updates
		var ids []int
		if cfg.Cohort > 0 && cfg.Cohort < clients {
			// Aggregate only the cohort's updates, reporting the sampled
			// client ids to the filter audit. Without cohort sampling there
			// is no churn in the star baseline, so update positions are
			// client ids and ids stays nil.
			vecs := make([]tensor.Vector, 0, cfg.Cohort)
			ids = make([]int, 0, cfg.Cohort)
			for id, u := range updates {
				if u != nil {
					vecs = append(vecs, u)
					ids = append(ids, id)
				}
			}
			inputs = vecs
		}
		in := step.Input{Round: round, Vecs: inputs, IDs: ids, Dst: globalBufs[round%2]}
		if cfg.Rule.IsCBA() {
			// Consensus at the server: contributing clients are the members,
			// each scoring every update on its own shard.
			in.Rand = roundRNG.Derive("cba-top")
			in.Workers, in.Local, in.Byzantine = workers, cfg.ClientData, hcfg.protocolByzantine()
		}
		agg, v, comm, err := st.Aggregate(cfg.Rule, in)
		if err != nil {
			return nil, fmt.Errorf("core: vanilla round %d: %w", round, err)
		}
		if ct != nil {
			kept, filtered := v.Counts()
			ct.global(round, cfg.Rule.Bare(), kept, filtered)
		}
		// Star topology: every participant uploads and the server broadcasts
		// back; a consensus at the server exchanges the models among the
		// members instead of broadcasting.
		roundComm := CommStats{ModelTransfers: 2 * len(inputs)}
		if cfg.Rule.IsCBA() {
			roundComm = CommStats{ModelTransfers: comm.ModelTransfers + len(inputs), ScalarMessages: comm.ScalarMessages}
		}
		// Server→client downlink: the broadcast global crosses one codec hop
		// (the previous global, still intact in the other buffer, is the
		// Delta reference every client holds).
		codecScratch.Ref = globalParams
		if _, err := step.Hop(cfg.Codec, agg, codecScratch); err != nil {
			return nil, fmt.Errorf("core: vanilla round %d broadcast codec: %w", round, err)
		}
		roundComm.WireBytes = int64(roundComm.ModelTransfers) * int64(cfg.Codec.WireBytes(dim))
		globalParams = agg
		res.Comm.Add(roundComm)
		if ins.enabled() {
			ins.observePhase(phaseAggregate, time.Since(tPhase))
			tPhase = time.Now()
		}

		if (round+1)%evalEvery == 0 || round == cfg.Rounds-1 {
			eval.Model.SetParams(globalParams)
			acc, loss := nn.Evaluate(eval.Model, cfg.TestData, workers)
			res.Curve = append(res.Curve, RoundStat{Round: round + 1, Accuracy: acc, Loss: loss})
			ins.evalDone(acc, loss)
			ct.eval(round)
			if ins.enabled() {
				ins.observePhase(phaseEval, time.Since(tPhase))
			}
		}
		if ins.enabled() {
			ins.roundDone(time.Since(tRound), roundComm)
		}
		ct.endRound(round)
	}
	if len(res.Curve) > 0 {
		res.FinalAccuracy = res.Curve[len(res.Curve)-1].Accuracy
	}
	res.FinalParams = globalParams
	res.TrainerBuffers = trainer.most
	trainer.release(updates)
	pool.Put(eval)
	step.Store.Put(globalBufs[cfg.Rounds%2])
	return res, nil
}

// drawVanillaSkip benches every client outside the round's deterministic
// k-cohort (nil when cohort sampling is off — everyone trains).
func drawVanillaSkip(cfg VanillaConfig, roundRNG *rng.RNG, clients int) map[int]bool {
	if cfg.Cohort <= 0 || cfg.Cohort >= clients {
		return nil
	}
	r := roundRNG.Derive("cohort")
	pick := make([]int, cfg.Cohort)
	r.ChoiceInto(pick, clients, make([]int, clients))
	skip := make(map[int]bool, clients-cfg.Cohort)
	in := make([]bool, clients)
	for _, p := range pick {
		in[p] = true
	}
	for id := 0; id < clients; id++ {
		if !in[id] {
			skip[id] = true
		}
	}
	return skip
}
