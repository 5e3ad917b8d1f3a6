package core

import (
	"cmp"
	"errors"
	"fmt"
	"time"

	"abdhfl/internal/codec"
	"abdhfl/internal/nn"
	"abdhfl/internal/rng"
	"abdhfl/internal/step"
	"abdhfl/internal/tensor"
)

// RunVanilla executes the star-topology baseline of the paper's Table V
// ("Vanilla FL is set with a central server as aggregation for all 64
// clients") over cfg.Tree's devices: every device that trains in a round
// uploads its update to one server, which aggregates with cfg.Partial and
// broadcasts the result back.
//
// It reads the run as RunHFL does: Rounds, Local, Hidden, ClientData,
// TestData, Byzantine, ModelAttack, Seed, EvalEvery, Workers, Codec (one hop
// per upload and one for the broadcast), Telemetry, OnFilter and Trace (the
// star reports everything at level 0, with device ids as contributor ids).
// Who trains each round is RunHFL's DrawRoundSkip set, so Churn and Cohort
// (k devices per bottom cluster) bench the same devices in both engines. A
// CBA Partial (any registered protocol, e.g. "voting" or the randomized
// "aba") runs its consensus over the submitted updates on the round's
// "cba-top" stream: the contributing devices are the members, each scoring
// every update on its own ClientData shard.
//
// Global, ValidationShards and Quorum describe the hierarchy the baseline is
// compared against; RunVanilla does not read them (Validate still checks
// them). It refuses, naming the field, what a star cannot run:
// PartialByLevel, RotateLeaders and OnRound.
func RunVanilla(cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	switch {
	case len(cfg.PartialByLevel) > 0:
		return nil, errors.New("core: vanilla: PartialByLevel is not supported: the one server aggregates with Partial")
	case cfg.RotateLeaders:
		return nil, errors.New("core: vanilla: RotateLeaders is not supported: the star has no leaders")
	case cfg.OnRound != nil:
		return nil, errors.New("core: vanilla: OnRound is not supported: the accuracy curve is Result.Curve")
	}
	cfg.Codec = cmp.Or[codec.Codec](cfg.Codec, codec.Identity{})
	root := rng.New(cfg.Seed)
	sizes := step.ModelSizes(cfg.Hidden)
	pool := step.Store.Pool(sizes)
	eval := pool.Get()
	dim := eval.Model.NumParams()

	devices := cfg.Tree.NumDevices()
	workers := tensor.ResolveWorkers(cfg.Workers)
	rule := cfg.Partial

	res := &Result{}
	updates := make([]tensor.Vector, devices)
	vecsBuf := make([]tensor.Vector, 0, devices)
	idsBuf := make([]int, 0, devices)
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
		skip := DrawRoundSkip(cfg, roundRNG, cfg.Tree)
		trainer.round(cfg, globalParams, updates, skip, roundRNG)
		res.TrainerActivations += len(trainer.active)
		if cfg.ModelAttack != nil {
			applyModelAttack(cfg, updates, globalParams, roundRNG.Derive("attack"))
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
				return nil, fmt.Errorf("core: vanilla round %d device %d codec: %w", round, id, err)
			}
		}
		if ins.enabled() {
			ins.observePhase(phaseTrain, time.Since(tPhase))
			tPhase = time.Now()
		}
		inputs := updates
		var ids []int
		if len(skip) > 0 {
			// Aggregate only the trainers' updates, reporting their device
			// ids to the filter audit. When everyone trains, update
			// positions are device ids and ids stays nil.
			inputs, ids = vecsBuf[:0], idsBuf[:0]
			for id, u := range updates {
				if u != nil {
					inputs = append(inputs, u)
					ids = append(ids, id)
				}
			}
		}
		in := step.Input{Round: round, Vecs: inputs, IDs: ids, Dst: globalBufs[round%2]}
		if rule.IsCBA() {
			// Consensus at the server: contributing devices are the members,
			// each scoring every update on its own shard.
			in.Rand = roundRNG.Derive("cba-top")
			in.Workers, in.Local, in.Byzantine = workers, cfg.ClientData, cfg.protocolByzantine()
		}
		agg, v, comm, err := st.Aggregate(rule, in)
		if err != nil {
			return nil, fmt.Errorf("core: vanilla round %d: %w", round, err)
		}
		if ct != nil {
			kept, filtered := v.Counts()
			ct.global(round, rule.Bare(), kept, filtered)
		}
		// Star topology: every participant uploads and the server broadcasts
		// back; a consensus at the server exchanges the models among the
		// members instead of broadcasting.
		roundComm := CommStats{ModelTransfers: 2 * len(inputs)}
		if rule.IsCBA() {
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

		if cfg.Evaluates(round) {
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
