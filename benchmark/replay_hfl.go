package main

import (
	"fmt"
	"time"

	"abdhfl"
	"abdhfl/internal/aggregate"
	"abdhfl/internal/codec"
	"abdhfl/internal/consensus"
	"abdhfl/internal/dataset"
	"abdhfl/internal/nn"
	"abdhfl/internal/rng"
	"abdhfl/internal/tensor"
)

// hflReplay replays one learning run from outside: the benchmark itself
// calls each layer's exported entry point with the inputs and call counts
// the engine's run implies, inside a span. It follows core.RunHFL's round —
// train every device, aggregate cluster by cluster up the tree, agree at
// the top, cross a codec hop per transfer, evaluate — with the same derived
// random streams, so on the round engine and the node engine the replay
// ends on the engine's own final model, bit for bit. That equality, not a
// resemblance of timings, is what shows the layers were fed what the engine
// feeds them.
type hflReplay struct {
	mat *abdhfl.Materials
	// wire replays transfers the way the node engine makes them: one encode
	// per frame sent and one decode per receiver, an in-place transcode where
	// sender and receiver are the same process. Without it every transfer is
	// one in-place transcode, as in the round engine.
	wire bool
	// accuracyOnly evaluates with nn.AccuracyWorkers, as the pipeline engine
	// does, instead of nn.Evaluate.
	accuracyOnly bool

	sizes      []int
	dim        int
	model      *nn.Model
	ws         *nn.Workspace
	evalModel  *nn.Model
	evalWS     *nn.Workspace
	updates    []tensor.Vector
	partials   [][]tensor.Vector // [level][cluster] aggregation destinations
	aggScratch *aggregate.Scratch
	codScratch *codec.Scratch
	wireBuf    []byte

	counts replayCounts
}

// replayCounts is the work one or more replayed runs did, held against what
// the engine reports for the same runs.
type replayCounts struct {
	trainCalls, trainSamples        int
	aggCalls, aggInputs, aggKept    int
	agreeCalls, proposals, excluded int
	agreeMessages, coinRounds       int
	validatorCalls, evalCalls       int
	evalSamples                     int
	encodes, decodes, transcodes    int
	frames                          int
	modelTransfers, scalarMessages  int
	agreeMS                         []float64
}

func newHFLReplay(mat *abdhfl.Materials, wire, accuracyOnly bool) *hflReplay {
	sizes := []int{dataset.Dim, 32, dataset.NumClasses}
	h := &hflReplay{
		mat: mat, wire: wire, accuracyOnly: accuracyOnly,
		sizes:      sizes,
		model:      nn.NewShaped(sizes...),
		evalModel:  nn.NewShaped(sizes...),
		updates:    make([]tensor.Vector, mat.Tree.NumDevices()),
		aggScratch: aggregate.NewScratch(1),
		codScratch: codec.NewScratch(),
	}
	h.aggScratch.Audit = &aggregate.FilterAudit{}
	h.ws = nn.NewWorkspace(h.model)
	h.evalWS = nn.NewWorkspace(h.evalModel)
	h.dim = h.model.NumParams()
	h.partials = make([][]tensor.Vector, len(mat.Tree.Clusters))
	for lvl := range mat.Tree.Clusters {
		h.partials[lvl] = make([]tensor.Vector, len(mat.Tree.Clusters[lvl]))
		for ci := range h.partials[lvl] {
			h.partials[lvl][ci] = tensor.NewVector(h.dim)
		}
	}
	if mat.Codec != nil {
		h.wireBuf = make([]byte, mat.Codec.WireBytes(h.dim))
	}
	return h
}

// hop carries v across one transfer to the given number of remote
// receivers: zero means sender and receiver share a process. Every receiver
// decodes the same bytes, so v ends up as the one value they all hold.
func (h *hflReplay) hop(rec *recorder, v tensor.Vector, receivers int) error {
	cdc := h.mat.Codec
	if h.wire {
		h.counts.frames += receivers
	}
	if cdc == nil {
		return nil
	}
	if !h.wire || receivers == 0 {
		h.counts.transcodes++
		rec.begin("codec.transcode")
		_, err := codec.Transcode(cdc, v, h.codScratch)
		rec.end()
		return err
	}
	h.counts.encodes++
	rec.begin("codec.encode")
	n, err := cdc.EncodeInto(h.wireBuf, v, h.codScratch)
	rec.end()
	if err != nil {
		return err
	}
	for i := 0; i < receivers; i++ {
		h.counts.decodes++
		rec.begin("codec.decode")
		err := cdc.DecodeInto(v, h.wireBuf[:n], h.codScratch)
		rec.end()
		if err != nil {
			return err
		}
	}
	return nil
}

// validator scores a proposal on a top member's validation shard, as the
// engines' shard validators do; each scoring is a child span, so the
// consensus span keeps only its own time.
func (h *hflReplay) validator(rec *recorder) consensus.Validator {
	shards := h.mat.ValidationShards
	return func(member int, model tensor.Vector) float64 {
		shard := shards[member%len(shards)]
		h.counts.validatorCalls++
		h.counts.evalSamples += shard.Len()
		h.evalModel.SetParams(model)
		rec.begin("nn.eval")
		acc := nn.AccuracyWS(h.evalModel, h.evalWS, shard)
		rec.end()
		return acc
	}
}

// run replays one run with the given engine seed and returns the final
// global model.
func (h *hflReplay) run(rec *recorder, engineSeed uint64) (tensor.Vector, error) {
	mat, tree := h.mat, h.mat.Tree
	sc := mat.Scenario
	root := rng.New(engineSeed)
	global := nn.New(root.Derive("init"), h.sizes...).Params()
	bottom := tree.Bottom()
	rootID := tree.NumDevices()

	for round := 0; round < sc.Rounds; round++ {
		roundRNG := root.Derive(fmt.Sprintf("round-%d", round))

		// Local training, one device after another.
		for id := range h.updates {
			h.model.SetParams(global)
			r := roundRNG.Derive(fmt.Sprintf("device-%d", id))
			h.counts.trainCalls++
			h.counts.trainSamples += mat.Local.Iterations * min(mat.Local.BatchSize, mat.Shards[id].Len())
			rec.begin("nn.train")
			nn.SGDWS(h.model, h.ws, mat.Shards[id], mat.Local, r)
			rec.end()
			h.updates[id] = h.model.ParamsInto(h.updates[id])
		}

		// Device → leader uplink: a leader's own update stays in its process.
		h.codScratch.Ref = global
		for id, u := range h.updates {
			receivers := 1
			if tree.ClusterOf(id).Leader == id {
				receivers = 0
			}
			if err := h.hop(rec, u, receivers); err != nil {
				return nil, err
			}
		}

		// Partial aggregation, bottom level up to level 1.
		inputs := h.updates
		for lvl := bottom; lvl >= 1; lvl-- {
			for ci, c := range tree.Clusters[lvl] {
				vecs := make([]tensor.Vector, 0, c.Size())
				for mi, m := range c.Members {
					if lvl == bottom {
						vecs = append(vecs, inputs[m])
					} else {
						vecs = append(vecs, inputs[tree.ChildClusters(lvl, ci)[mi].Index])
					}
				}
				dst := h.partials[lvl][ci]
				if err := h.aggregate(rec, mat.PartialRule.BRA, dst, vecs); err != nil {
					return nil, fmt.Errorf("round %d cluster (%d,%d): %w", round, lvl, ci, err)
				}
				h.counts.modelTransfers += (len(vecs) - 1) + (c.Size() - 1)
				// Leader → parent uplink; level-1 partials go to the root.
				parent := rootID
				if lvl > 1 {
					parent = tree.Parent(lvl, ci).Leader
				}
				receivers := 1
				if parent == c.Leader {
					receivers = 0
				}
				if err := h.hop(rec, dst, receivers); err != nil {
					return nil, err
				}
			}
			inputs = h.partials[lvl]
		}

		// Global aggregation at the top.
		newGlobal, err := h.agree(rec, roundRNG, round, inputs)
		if err != nil {
			return nil, fmt.Errorf("round %d top level: %w", round, err)
		}

		// Dissemination: one encoding; the root and every device decode it.
		// Frames: root → top members, then every leader → its cluster's other
		// members, level by level.
		h.codScratch.Ref = global
		if h.wire {
			if err := h.hop(rec, newGlobal, rootID+1); err != nil {
				return nil, err
			}
			// hop counted one frame per decoding node; the root's own decode
			// crosses no wire.
			h.counts.frames--
		} else if err := h.hop(rec, newGlobal, 1); err != nil {
			return nil, err
		}
		global = newGlobal
		for _, level := range tree.Clusters {
			for _, c := range level {
				h.counts.modelTransfers += c.Size() - 1
			}
		}

		if (round+1)%sc.EvalEvery == 0 || round == sc.Rounds-1 {
			h.evalModel.SetParams(global)
			h.counts.evalCalls++
			h.counts.evalSamples += mat.TestData.Len()
			rec.begin("nn.eval")
			if h.accuracyOnly {
				nn.AccuracyWorkers(h.evalModel, mat.TestData, 1)
			} else {
				nn.Evaluate(h.evalModel, mat.TestData, 1)
			}
			rec.end()
		}
	}
	return global, nil
}

func (h *hflReplay) aggregate(rec *recorder, rule aggregate.Aggregator, dst tensor.Vector, vecs []tensor.Vector) error {
	h.counts.aggCalls++
	rec.begin("aggregate")
	err := rule.AggregateInto(dst, h.aggScratch, vecs)
	rec.end()
	if err != nil {
		return err
	}
	kept, _, _ := h.aggScratch.Audit.Counts()
	h.counts.aggInputs += len(vecs)
	h.counts.aggKept += kept
	return nil
}

// agree forms the global model from the level-1 partials with the scenario's
// top rule. On the wire the root first ships every contributing leader the
// proposal set and collects its ballot: two frames per leader.
func (h *hflReplay) agree(rec *recorder, roundRNG *rng.RNG, round int, partials []tensor.Vector) (tensor.Vector, error) {
	rule := h.mat.GlobalRule
	n := len(partials)
	if !rule.IsCBA() {
		dst := tensor.NewVector(h.dim)
		h.counts.modelTransfers += 2 * (n - 1)
		return dst, h.aggregate(rec, rule.BRA, dst, partials)
	}
	if _, isABA := rule.CBA.(consensus.ABA); isABA && h.wire {
		h.counts.frames += 2 * n
	}
	ctx := &consensus.Context{
		Members:   n,
		Validator: h.validator(rec),
		Rand:      roundRNG.Derive("cba-top"),
		Round:     round,
	}
	h.counts.agreeCalls++
	h.counts.proposals += n
	t0 := time.Now()
	rec.begin("consensus")
	out, st, err := rule.CBA.Agree(ctx, partials)
	rec.end()
	if err != nil {
		return nil, err
	}
	h.counts.agreeMS = append(h.counts.agreeMS, float64(time.Since(t0).Nanoseconds())/1e6)
	h.counts.excluded += len(st.Excluded)
	h.counts.agreeMessages += st.Messages
	h.counts.coinRounds += st.CoinRounds
	h.counts.modelTransfers += st.ModelTransfers
	h.counts.scalarMessages += st.Messages - st.ModelTransfers
	return out, nil
}
