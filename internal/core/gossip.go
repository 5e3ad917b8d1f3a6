package core

import (
	"errors"
	"fmt"
	"time"

	"abdhfl/internal/aggregate"
	"abdhfl/internal/codec"
	"abdhfl/internal/consensus"
	"abdhfl/internal/dataset"
	"abdhfl/internal/nn"
	"abdhfl/internal/rng"
	"abdhfl/internal/step"
	"abdhfl/internal/telemetry"
	"abdhfl/internal/tensor"
	"abdhfl/internal/trace"
)

// GossipConfig describes a flat gossip-averaging baseline — the "gossip
// topology" alternative the paper's introduction lists next to tree and star
// paradigms. Each round every device trains locally and then aggregates its
// model with Fanout random peers' models using the configured rule; there is
// no hierarchy and no global aggregation, so the reported accuracy is the
// mean over devices' local models.
type GossipConfig struct {
	Rounds int
	// Fanout is the number of random peers each device pulls per round;
	// zero selects 3.
	Fanout     int
	Local      nn.TrainConfig
	Hidden     []int
	Aggregator aggregate.Aggregator
	// NeighborhoodCBA, when set, replaces the aggregation rule inside each
	// device's neighbourhood with a consensus protocol: the group's devices
	// are the members, each scoring every pulled model on its own shard, and
	// the protocol's decision becomes the device's next model. This is the
	// flat-topology analogue of the hierarchical engine's per-cluster CBA —
	// consensus still only ever sees the tiny fanout-sized neighbourhood.
	NeighborhoodCBA consensus.Protocol

	ClientData []*dataset.Dataset
	TestData   *dataset.Dataset

	Byzantine map[int]bool

	Seed      uint64
	EvalEvery int
	Workers   int
	// EvalSample bounds how many devices are evaluated per measurement
	// (mean accuracy over a deterministic sample); zero selects 8.
	EvalSample int
	// Telemetry and OnFilter mirror Config's fields. Gossip reports every
	// per-device neighbourhood aggregation at level 0, with the device's own
	// id as the cluster index and the neighbourhood's device ids as
	// contributors.
	Telemetry *telemetry.Registry
	OnFilter  func(telemetry.FilterDecision)
	// Cohort is the number of devices deterministically sampled to TRAIN per
	// round; zero (or >= the device count) trains everyone. Unsampled
	// devices still gossip, contributing their current (stale) model to
	// their neighbours' aggregations — the flat-topology analogue of
	// cross-device client sampling.
	Cohort int
	// Codec mirrors Config.Codec. Each device's round model crosses one
	// encode→decode hop before the exchange — every peer then pulls the same
	// decoded copy, modeling a device that encodes once and serves all its
	// gossip partners identical bytes. Gossip has no shared global model, so
	// the Delta codec runs with a zero reference here.
	Codec codec.Codec
	// Trace mirrors Config.Trace: causal spans on the logical clock. Gossip
	// forms no global model, so each device's train span feeds its own
	// neighbourhood aggregation and rounds have no critical path.
	Trace *trace.Tracer
}

// Validate reports configuration errors.
func (c *GossipConfig) Validate() error {
	if c.Rounds <= 0 {
		return errors.New("core: gossip Rounds must be positive")
	}
	if len(c.ClientData) < 2 {
		return errors.New("core: gossip needs at least 2 devices")
	}
	if c.TestData == nil || c.TestData.Len() == 0 {
		return errors.New("core: gossip TestData is empty")
	}
	if c.Aggregator == nil && c.NeighborhoodCBA == nil {
		return errors.New("core: gossip Aggregator is nil")
	}
	return nil
}

// RunGossip executes the gossip baseline. Byzantine devices are data
// poisoners (their shards are poisoned by the harness); because gossip has
// no aggregation point with a global view, robust rules can only act on the
// tiny per-device neighbourhoods — which is exactly the structural weakness
// the hierarchical design addresses.
func RunGossip(cfg GossipConfig) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	fanout := cfg.Fanout
	if fanout == 0 {
		fanout = 3
	}
	devices := len(cfg.ClientData)
	if fanout >= devices {
		fanout = devices - 1
	}
	evalEvery := cfg.EvalEvery
	if evalEvery <= 0 {
		evalEvery = 1
	}
	evalSample := cfg.EvalSample
	if evalSample <= 0 {
		evalSample = 8
	}
	if evalSample > devices {
		evalSample = devices
	}
	workers := tensor.ResolveWorkers(cfg.Workers)

	root := rng.New(cfg.Seed)
	sizes := step.ModelSizes(cfg.Hidden)
	initParams := nn.InitParamsInto(nil, root.Derive("init"), sizes...)
	params := make([]tensor.Vector, devices)
	for i := range params {
		params[i] = initParams.Clone()
	}
	trained := make([]tensor.Vector, devices)
	hcfg := Config{ClientData: cfg.ClientData, Local: cfg.Local, Byzantine: cfg.Byzantine}
	rule := step.Rule{BRA: cfg.Aggregator}
	if cfg.NeighborhoodCBA != nil {
		rule = step.Rule{CBA: cfg.NeighborhoodCBA}
	}

	res := &Result{}
	evalModel := nn.NewShaped(sizes...)
	evalWS := nn.NewWorkspace(evalModel)
	trainer := newLocalTrainer(sizes, workers, devices)
	// Aggregation memory persists across rounds: one warm stepper for the
	// rule's buffers, a reusable peer-group slice, and double-buffered
	// per-device model storage (round r writes bufs[r%2] while bufs[(r-1)%2]
	// still holds the params the trainer just read).
	dim := len(initParams)
	obs := step.NewObserver(cfg.Telemetry, "gossip", 1, cfg.OnFilter, cfg.Trace)
	st := step.NewStepper(obs, workers, sizes, false)
	codecScratch := codec.NewScratch()
	ins := newInstruments(cfg.Telemetry, "gossip", cfg.Codec, dim)
	ct := newCoreTracer(cfg.Trace, 0, step.WireBytes(cfg.Codec, dim))
	group := make([]tensor.Vector, 0, fanout+1)
	groupIDs := make([]int, 0, fanout+1)
	var aggBufs [2][]tensor.Vector
	for round := 0; round < cfg.Rounds; round++ {
		roundRNG := root.DeriveDecimal("round-", round)
		ct.beginRound()
		var tRound, tPhase time.Time
		commBefore := res.Comm
		if ins.enabled() {
			tRound = time.Now()
			tPhase = tRound
		}
		// Local training: each sampled device trains its own current model;
		// benched devices carry their stale model into the exchange.
		skip := drawGossipSkip(cfg, roundRNG, devices)
		trainLocalFrom(trainer, hcfg, params, trained, skip, roundRNG)
		res.TrainerActivations += devices - len(skip)
		if ct != nil {
			for id := 0; id < devices; id++ {
				if !skip[id] {
					ct.trainGossip(round, id)
				}
			}
		}
		// Codec hop: each device encodes its round model once; every peer
		// that pulls it receives the same decoded copy.
		if cfg.Codec != nil {
			for id, u := range trained {
				if _, err := codec.Transcode(cfg.Codec, u, codecScratch); err != nil {
					return nil, fmt.Errorf("core: gossip round %d device %d codec: %w", round, id, err)
				}
			}
		}
		if ins.enabled() {
			ins.observePhase(phaseTrain, time.Since(tPhase))
			tPhase = time.Now()
		}
		// Gossip exchange: each device aggregates its model with fanout
		// random peers' trained models.
		if aggBufs[round%2] == nil {
			aggBufs[round%2] = make([]tensor.Vector, devices)
		}
		next := aggBufs[round%2]
		for id := 0; id < devices; id++ {
			r := roundRNG.Derive(fmt.Sprintf("peers-%d", id))
			group = append(group[:0], trained[id])
			groupIDs = append(groupIDs[:0], id)
			for _, p := range r.Choice(devices, fanout+1) {
				if p != id && len(group) <= fanout {
					group = append(group, trained[p])
					groupIDs = append(groupIDs, p)
				}
			}
			if next[id] == nil {
				next[id] = tensor.NewVector(dim)
			}
			in := step.Input{Cluster: id, Round: round, Vecs: group, IDs: groupIDs, Dst: next[id]}
			if cfg.NeighborhoodCBA != nil {
				// Neighbourhood consensus: the group's devices are the
				// members, each scoring every pulled model on its own shard.
				in.Rand = roundRNG.Derive(fmt.Sprintf("cba-%d", id))
				in.Workers, in.Local, in.Name = workers, cfg.ClientData, rule.Bare()
			}
			_, v, comm, err := st.Aggregate(rule, in)
			if err != nil {
				return nil, fmt.Errorf("core: gossip round %d device %d: %w", round, id, err)
			}
			if ct != nil {
				kept, filtered := v.Counts()
				ct.gossipAggregate(round, id, rule.Bare(), kept, filtered)
			}
			// The device pulls its peers' models; a consensus adds its own
			// exchange on top.
			res.Comm.ModelTransfers += comm.ModelTransfers + len(group) - 1
			res.Comm.ScalarMessages += comm.ScalarMessages
		}
		params = next
		if cfg.Codec != nil {
			moved := res.Comm.ModelTransfers - commBefore.ModelTransfers
			res.Comm.WireBytes += int64(moved) * int64(cfg.Codec.WireBytes(dim))
		}
		if ins.enabled() {
			ins.observePhase(phaseAggregate, time.Since(tPhase))
			tPhase = time.Now()
		}

		if (round+1)%evalEvery == 0 || round == cfg.Rounds-1 {
			// Mean accuracy over a deterministic device sample.
			er := root.Derive(fmt.Sprintf("eval-%d", round))
			sum := 0.0
			for _, id := range er.Choice(devices, evalSample) {
				evalModel.SetParams(params[id])
				sum += nn.AccuracyWS(evalModel, evalWS, cfg.TestData)
			}
			acc := sum / float64(evalSample)
			res.Curve = append(res.Curve, RoundStat{Round: round + 1, Accuracy: acc})
			ins.evalDone(acc, 0)
			ct.eval(round)
			if ins.enabled() {
				ins.observePhase(phaseEval, time.Since(tPhase))
			}
		}
		if ins.enabled() {
			delta := res.Comm
			delta.ModelTransfers -= commBefore.ModelTransfers
			delta.ScalarMessages -= commBefore.ScalarMessages
			delta.WireBytes -= commBefore.WireBytes
			ins.roundDone(time.Since(tRound), delta)
		}
		ct.endRound(round)
	}
	if len(res.Curve) > 0 {
		res.FinalAccuracy = res.Curve[len(res.Curve)-1].Accuracy
	}
	return res, nil
}

// trainLocalFrom is localTrainer.round with per-device start parameters
// (gossip has no shared global model). out buffers are reused across rounds:
// gossip aggregation copies every kept model's values into its own output
// buffer, so trained vectors are never retained past the round. Skipped
// devices copy their start model into their out buffer unchanged — they
// gossip a stale model instead of a fresh one. (The copy, rather than an
// alias, keeps out buffers disjoint from the aggregation double-buffers.)
func trainLocalFrom(t *localTrainer, cfg Config, starts, out []tensor.Vector, skip map[int]bool, roundRNG *rng.RNG) {
	devices := len(starts)
	jobs := make(chan int)
	done := make(chan struct{})
	for w := range t.models {
		go func(m *nn.Model, ws *nn.Workspace) {
			for id := range jobs {
				m.SetParams(starts[id])
				r := roundRNG.DeriveDecimal("device-", id)
				nn.SGDWS(m, ws, cfg.ClientData[id], cfg.Local, r)
				out[id] = m.ParamsInto(out[id])
			}
			done <- struct{}{}
		}(t.models[w], t.wss[w])
	}
	for id := 0; id < devices; id++ {
		if skip[id] {
			if out[id] == nil {
				out[id] = tensor.NewVector(len(starts[id]))
			}
			copy(out[id], starts[id])
			continue
		}
		jobs <- id
	}
	close(jobs)
	for range t.models {
		<-done
	}
}

// drawGossipSkip benches every device outside the round's deterministic
// k-cohort (nil when cohort sampling is off).
func drawGossipSkip(cfg GossipConfig, roundRNG *rng.RNG, devices int) map[int]bool {
	if cfg.Cohort <= 0 || cfg.Cohort >= devices {
		return nil
	}
	r := roundRNG.Derive("cohort")
	pick := make([]int, cfg.Cohort)
	r.ChoiceInto(pick, devices, make([]int, devices))
	in := make([]bool, devices)
	for _, p := range pick {
		in[p] = true
	}
	skip := make(map[int]bool, devices-cfg.Cohort)
	for id := 0; id < devices; id++ {
		if !in[id] {
			skip[id] = true
		}
	}
	return skip
}
