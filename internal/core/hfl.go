package core

import (
	"cmp"
	"fmt"
	"sync"
	"time"

	"abdhfl/internal/attack"
	"abdhfl/internal/codec"
	"abdhfl/internal/consensus"
	"abdhfl/internal/nn"
	"abdhfl/internal/rng"
	"abdhfl/internal/step"
	"abdhfl/internal/tensor"
	"abdhfl/internal/topology"
)

// RunHFL executes an ABD-HFL learning run as a deterministic round engine:
// per round, every bottom device trains locally (Algorithm 2), partial
// models are aggregated cluster by cluster up the tree (Algorithms 3-4), the
// top level forms the global model with BRA or CBA (Algorithm 6), and the
// new global model is disseminated back to all devices (Algorithm 5). Local
// training fans out over a worker pool; results are independent of
// scheduling because every device derives its own random stream.
func RunHFL(cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg.Codec = cmp.Or[codec.Codec](cfg.Codec, codec.Identity{})
	root := rng.New(cfg.Seed)
	sizes := step.ModelSizes(cfg.Hidden)
	pool := step.Store.Pool(sizes)
	eval := pool.Get()
	dim := eval.Model.NumParams()

	tree := cfg.Tree
	devices := tree.NumDevices()
	workers := tensor.ResolveWorkers(cfg.Workers)
	evalEvery := cfg.EvalEvery
	if evalEvery <= 0 {
		evalEvery = 1
	}

	res := &Result{}
	updates := make([]tensor.Vector, devices)
	trainer := newLocalTrainer(pool, dim, workers)

	// Aggregation working memory, reused across rounds: one stepper for every
	// cluster step (aggregation is sequential within a round), one
	// destination buffer per (level, cluster) — inputs at each level live in
	// the level below's buffers, so destinations never alias inputs — and a
	// double-buffered global destination, whose second half holds the
	// initial model until round 1 overwrites it. Leader rotation preserves
	// the tree shape, so the cluster counts are stable. Every vector and
	// model comes from the process store and goes back at the end (release).
	obs := step.NewObserver(cfg.Telemetry, "hfl", len(tree.Clusters), cfg.OnFilter, cfg.Trace)
	st := step.NewStepper(obs, workers, pool, false)
	// Codec working memory beside the stepper: the round loop is sequential,
	// so one Scratch serves every hop of every round.
	codecScratch := codec.NewScratch()
	ins := newInstruments(cfg.Telemetry, "hfl", cfg.Codec, dim)
	ct := newCoreTracer(cfg.Trace, tree.Bottom(), int64(cfg.Codec.WireBytes(dim)))
	partialBufs := make([][]tensor.Vector, len(tree.Clusters))
	levelOut := make([][]tensor.Vector, len(tree.Clusters))
	for lvl := range tree.Clusters {
		partialBufs[lvl] = make([]tensor.Vector, len(tree.Clusters[lvl]))
		levelOut[lvl] = make([]tensor.Vector, len(tree.Clusters[lvl]))
	}
	globalBufs := [2]tensor.Vector{step.Store.Take(dim), nn.InitParamsInto(step.Store.Take(dim), root.Derive("init"), sizes...)}
	globalParams := globalBufs[1]
	vecsBuf := make([]tensor.Vector, 0, devices)
	idsBuf := make([]int, 0, devices)

	baseTree := tree
	for round := 0; round < cfg.Rounds; round++ {
		roundRNG := root.DeriveDecimal("round-", round)
		ct.beginRound()
		var tRound, tPhase time.Time
		commBefore := res.Comm
		if ins.enabled() {
			tRound = time.Now()
			tPhase = tRound
		}

		// --- Leader re-election: rotate every cluster's leadership and
		// rebuild the upper levels from the new leaders.
		if cfg.RotateLeaders {
			rotated, err := baseTree.Rotate(round)
			if err != nil {
				return nil, fmt.Errorf("core: round %d leader rotation: %w", round, err)
			}
			tree = rotated
		}

		// --- Availability churn (Assumption 3) and cohort sampling: offline
		// and unsampled devices skip the round entirely.
		skip := DrawRoundSkip(cfg, roundRNG, tree)

		// --- Local model training (Algorithm 2) over a worker pool.
		trainer.round(cfg, globalParams, updates, skip, roundRNG)
		res.TrainerActivations += len(trainer.active)

		// --- Model-update attacks by Byzantine devices (omniscient model).
		if cfg.ModelAttack != nil {
			applyModelAttack(cfg, updates, globalParams, roundRNG.Derive("attack"))
		}

		if ct != nil {
			// Train spans, cluster by cluster in member order — the same
			// order for every worker count.
			for ci, c := range tree.Clusters[tree.Bottom()] {
				for _, m := range c.Members {
					if updates[m] != nil {
						ct.train(round, m, ci)
					}
				}
			}
		}

		// --- Device→leader uplink: each submitted update crosses one codec
		// hop. The Delta reference is the round's start model, which every
		// device and leader already holds from dissemination.
		codecScratch.Ref = globalParams
		for id, u := range updates {
			if u == nil {
				continue
			}
			if _, err := step.Hop(cfg.Codec, u, codecScratch); err != nil {
				return nil, fmt.Errorf("core: round %d device %d codec: %w", round, id, err)
			}
		}

		if ins.enabled() {
			ins.observePhase(phaseTrain, time.Since(tPhase))
			tPhase = time.Now()
		}

		// --- Partial model aggregation (Algorithms 3-4), bottom level up to
		// level 1. partials[i] is the output of cluster i at the current
		// level; at the bottom the inputs are device updates.
		partials := updates
		byLevelInput := func(c *topology.Cluster, lvl int) ([]tensor.Vector, []int) {
			// The shared backing buffers are safe to reuse per cluster: the
			// step consumes vecs/ids synchronously and copies its result
			// into the destination it is given.
			vecs := vecsBuf[:0]
			ids := idsBuf[:0]
			for mi, m := range c.Members {
				var v tensor.Vector
				if lvl == tree.Bottom() {
					v = partials[m]
				} else {
					// Members of an upper cluster are leaders of child
					// clusters; the child cluster order matches member order.
					v = partials[tree.ChildIndex(c, mi)]
				}
				if v != nil {
					vecs = append(vecs, v)
					ids = append(ids, m)
				}
			}
			return vecs, ids
		}
		for lvl := tree.Bottom(); lvl >= 1; lvl-- {
			next := levelOut[lvl]
			for i := range next {
				next[i] = nil
			}
			rule := cfg.RuleAt(lvl)
			for ci, c := range tree.Clusters[lvl] {
				vecs, ids := byLevelInput(c, lvl)
				if len(vecs) == 0 {
					// Every contributor is offline this round (churn): the
					// cluster contributes nothing and the level above
					// aggregates fewer inputs.
					continue
				}
				vecs, ids = step.ApplyQuorum(cfg.Quorum, roundRNG, lvl, ci, vecs, ids)
				if partialBufs[lvl][ci] == nil {
					partialBufs[lvl][ci] = step.Store.Take(dim)
				}
				agg, v, comm, err := st.Aggregate(rule, cfg.ClusterInput(roundRNG, c, round, vecs, ids, partialBufs[lvl][ci]))
				if err != nil {
					return nil, fmt.Errorf("core: round %d level %d cluster %d: %w", round, lvl, ci, err)
				}
				if ct != nil {
					parentCi := -1
					if lvl > 1 {
						parentCi = tree.Parent(lvl, ci).Index
					}
					kept, filtered := v.Counts()
					ct.aggregate(round, lvl, ci, parentCi, rule.Name(), kept, filtered)
				}
				res.Comm.Add(StepComm(rule, comm, len(vecs), c.Size()))
				// Leader→parent uplink: the freshly formed partial crosses the
				// next codec hop before the level above consumes it.
				if _, err := step.Hop(cfg.Codec, agg, codecScratch); err != nil {
					return nil, fmt.Errorf("core: round %d level %d cluster %d codec: %w", round, lvl, ci, err)
				}
				next[ci] = agg
			}
			partials = next
		}

		// --- Global model aggregation (Algorithm 6) at the top. After the
		// level loop, partials holds one model per level-1 cluster, whose
		// leaders — the top cluster's members — are the contributors.
		vecs, ids := vecsBuf[:0], idsBuf[:0]
		for i, p := range partials {
			if p != nil {
				vecs = append(vecs, p)
				ids = append(ids, tree.Clusters[1][i].Leader)
			}
		}
		newGlobal, v, comm, err := st.Aggregate(cfg.Global, cfg.TopInput(roundRNG, round, vecs, ids, globalBufs[round%2], nil))
		if err != nil {
			return nil, fmt.Errorf("core: round %d top level: %w", round, err)
		}
		res.Comm.Add(StepComm(cfg.Global, comm, len(vecs), len(vecs)))
		res.ExcludedByConsensus += v.Excluded
		if ct != nil {
			kept, filtered := v.Counts()
			ct.global(round, cfg.Global.Name(), kept, filtered)
		}
		// Dissemination downlink: the new global crosses one codec hop (all
		// broadcast copies carry the same encoding), deltas referenced
		// against the previous global every receiver still holds. The
		// double-buffered globals keep the reference intact while the new
		// model decodes in place.
		codecScratch.Ref = globalParams
		if _, err := step.Hop(cfg.Codec, newGlobal, codecScratch); err != nil {
			return nil, fmt.Errorf("core: round %d dissemination codec: %w", round, err)
		}
		globalParams = newGlobal

		// --- Dissemination (Algorithm 5): the global model travels down the
		// tree, one broadcast per cluster.
		res.Comm.ModelTransfers += tree.DisseminationTransfers()
		if ins.enabled() {
			ins.observePhase(phaseAggregate, time.Since(tPhase))
			tPhase = time.Now()
		}

		// --- Evaluation.
		if (round+1)%evalEvery == 0 || round == cfg.Rounds-1 {
			eval.Model.SetParams(globalParams)
			// Evaluate's chunked reduction is worker-count-invariant, so the
			// curve is bit-identical whatever cfg.Workers is.
			acc, loss := nn.Evaluate(eval.Model, cfg.TestData, workers)
			stat := RoundStat{Round: round + 1, Accuracy: acc, Loss: loss}
			res.Curve = append(res.Curve, stat)
			ins.evalDone(acc, loss)
			ct.eval(round)
			if cfg.OnRound != nil {
				cfg.OnRound(stat)
			}
			if ins.enabled() {
				ins.observePhase(phaseEval, time.Since(tPhase))
			}
		}
		// Wire-byte accounting: every model transfer this round shipped one
		// codec-encoded vector of the same dimension.
		moved := res.Comm.ModelTransfers - commBefore.ModelTransfers
		res.Comm.WireBytes += int64(moved) * int64(cfg.Codec.WireBytes(dim))
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
	res.FinalParams = globalParams
	res.TrainerBuffers = trainer.most
	trainer.release(updates)
	pool.Put(eval)
	for _, bufs := range partialBufs {
		step.Store.Put(bufs...) // a nil vector is dropped
	}
	step.Store.Put(globalBufs[cfg.Rounds%2])
	return res, nil
}

// localTrainer holds the per-worker training models/workspaces, borrowed
// from the process store (step.Store) for the run, and borrows update
// buffers there only for the round's active trainers. Every device derives
// its own random stream, so results are independent of both worker count
// and job scheduling. Idle devices hold NO model vector: a buffer is lent
// only between a device's activation and the next round's reclaim — the
// lazy-state half of the million-device scale-out.
type localTrainer struct {
	models *nn.EvalPool
	dim    int
	// scratch holds the workers' models and workspaces, borrowed for the run.
	scratch []*nn.EvalScratch
	// active lists the ids whose buffers are lent out, given back at the
	// next round call, after aggregation has copied them.
	active []int
	most   int // the most buffers lent in any one round (Result.TrainerBuffers)
}

func newLocalTrainer(models *nn.EvalPool, dim, workers int) *localTrainer {
	t := &localTrainer{models: models, dim: dim, scratch: make([]*nn.EvalScratch, workers)}
	for w := range t.scratch {
		t.scratch[w] = models.Get()
	}
	return t
}

// reclaim gives the previous round's lent-out buffers back to the store.
// The slots may hold different vectors than were lent (the attack layer
// swaps in same-dimension poisoned vectors); whatever is there goes back.
func (t *localTrainer) reclaim(updates []tensor.Vector) {
	for _, id := range t.active {
		step.Store.Put(updates[id])
		updates[id] = nil
	}
	t.active = t.active[:0]
}

// release gives every buffer and model the trainer holds back to the store,
// once the run has read the last round's updates.
func (t *localTrainer) release(updates []tensor.Vector) {
	t.reclaim(updates)
	for _, s := range t.scratch {
		t.models.Put(s)
	}
}

// round runs every active device's local SGD over the worker pool and stores
// flattened parameter updates (skipped devices — offline or outside the
// round's cohort — get nil).
func (t *localTrainer) round(cfg Config, start tensor.Vector, updates []tensor.Vector, skip map[int]bool, roundRNG *rng.RNG) {
	t.reclaim(updates)
	devices := len(updates)
	var wg sync.WaitGroup
	jobs := make(chan int)
	for _, s := range t.scratch {
		wg.Add(1)
		go func(m *nn.Model, ws *nn.Workspace) {
			defer wg.Done()
			for id := range jobs {
				m.SetParams(start)
				r := roundRNG.DeriveDecimal("device-", id)
				nn.SGDWS(m, ws, cfg.ClientData[id], cfg.Local, r)
				updates[id] = m.ParamsInto(updates[id])
			}
		}(s.Model, s.WS)
	}
	for id := 0; id < devices; id++ {
		if skip[id] {
			updates[id] = nil
			continue
		}
		// Assign the buffer before dispatch: the channel send orders the
		// write against the worker's read, and active stays owned by this
		// goroutine.
		updates[id] = step.Store.Take(t.dim)
		t.active = append(t.active, id)
		jobs <- id
	}
	t.most = max(t.most, len(t.active))
	close(jobs)
	wg.Wait()
}

// DrawRoundSkip draws the round's non-training set: every device independently
// offline with the churn probability plus, when cohort sampling is on, every
// bottom-cluster member of tree outside its cluster's deterministically
// sampled k-cohort. Each cluster draws from its own derived stream, so the
// sample is independent of cluster iteration order and of every other random
// draw in the round — and any process holding the config and the round's
// stream computes the same set, which is what lets a distributed aggregator
// know which contributors to expect without any signaling.
func DrawRoundSkip(cfg Config, roundRNG *rng.RNG, tree *topology.Tree) map[int]bool {
	var skip map[int]bool
	if cfg.Churn.OfflineProb > 0 {
		r := roundRNG.Derive("churn")
		skip = map[int]bool{}
		for id, devices := 0, tree.NumDevices(); id < devices; id++ {
			if r.Float64() < cfg.Churn.OfflineProb {
				skip[id] = true
			}
		}
	}
	if cfg.Cohort <= 0 {
		return skip
	}
	if skip == nil {
		skip = map[int]bool{}
	}
	bottom := tree.Clusters[tree.Bottom()]
	maxSize := 0
	for _, c := range bottom {
		if c.Size() > maxSize {
			maxSize = c.Size()
		}
	}
	pick := make([]int, 0, cfg.Cohort)
	scratch := make([]int, maxSize)
	for ci, c := range bottom {
		k := cfg.Cohort
		if k >= c.Size() {
			continue // whole cluster trains
		}
		r := roundRNG.DeriveN("cohort", uint64(ci))
		pick = pick[:k]
		r.ChoiceInto(pick, c.Size(), scratch)
		in := scratch[:c.Size()]
		for i := range in {
			in[i] = 0
		}
		for _, p := range pick {
			in[p] = 1
		}
		for mi, m := range c.Members {
			if in[mi] == 0 {
				skip[m] = true
			}
		}
	}
	return skip
}

// applyModelAttack replaces Byzantine devices' updates with attacked
// vectors. Following the Byzantine-FL literature, attacks operate on the
// round's update DELTAS (trained params minus the round's start model), with
// the honest deltas' population statistics as the omniscient attacker's
// knowledge; the poisoned delta is re-anchored at the start model. Attacking
// raw parameter vectors instead would destroy the network in round one
// before any validator can discriminate, which no published attack model
// intends.
func applyModelAttack(cfg Config, updates []tensor.Vector, start tensor.Vector, r *rng.RNG) {
	var honestDeltas []tensor.Vector
	for id, u := range updates {
		if u != nil && !cfg.Byzantine[id] {
			honestDeltas = append(honestDeltas, tensor.Sub(tensor.NewVector(len(u)), u, start))
		}
	}
	if len(honestDeltas) == 0 {
		// Everyone online is Byzantine; attack their own statistics.
		for _, u := range updates {
			if u != nil {
				honestDeltas = append(honestDeltas, tensor.Sub(tensor.NewVector(len(u)), u, start))
			}
		}
	}
	if len(honestDeltas) == 0 {
		return // everyone offline this round
	}
	mean, std := attack.PopulationStats(honestDeltas)
	for id := range updates {
		if !cfg.Byzantine[id] || updates[id] == nil {
			continue
		}
		delta := tensor.Sub(tensor.NewVector(len(start)), updates[id], start)
		poisoned := cfg.ModelAttack.Apply(r, delta, mean, std)
		updates[id] = tensor.Add(poisoned, poisoned, start)
	}
}

// ClusterInput is cluster c's step input in the round protocol (Algorithms
// 3-4): members score a CBA's proposals on their own training shards, and
// the instance draws from roundRNG's "cba-<level>-<index>" stream. RunHFL
// and the distributed node engine build their inputs here, which is what
// keeps the two bit-identical.
func (c *Config) ClusterInput(roundRNG *rng.RNG, cl *topology.Cluster, round int, vecs []tensor.Vector, ids []int, dst tensor.Vector) step.Input {
	in := step.Input{Level: cl.Level, Cluster: cl.Index, Round: round, Vecs: vecs, IDs: ids, Dst: dst}
	if c.RuleAt(cl.Level).IsCBA() {
		in.Rand = roundRNG.DeriveDecimals("cba-", cl.Level, cl.Index)
		in.Workers, in.Local, in.Byzantine = c.Workers, c.ClientData, c.protocolByzantine()
	}
	return in
}

// TopInput is the top cluster's step input (Algorithm 6): ids are the
// contributing level-1 leaders, members score on the top nodes' private
// validation shards (the paper's Appendix D-B voting input; Validate rejects
// a CBA top without shards), and the instance draws from roundRNG's
// "cba-top" stream. ballots, when non-nil, injects wire-collected member
// ballots (the node engine's ABA exchange).
func (c *Config) TopInput(roundRNG *rng.RNG, round int, vecs []tensor.Vector, ids []int, dst tensor.Vector, ballots *consensus.BallotSet) step.Input {
	in := step.Input{Round: round, Vecs: vecs, IDs: ids, Dst: dst}
	if c.Global.IsCBA() {
		in.Rand = roundRNG.Derive("cba-top")
		in.Workers, in.Shards, in.Byzantine, in.Ballots = c.Workers, c.ValidationShards, c.protocolByzantine(), ballots
	}
	return in
}

// protocolByzantine returns the devices that deviate inside consensus
// protocols: model attackers only. Data poisoners follow the protocol
// honestly (the paper's Table V note).
func (c *Config) protocolByzantine() map[int]bool {
	if c.ModelAttack == nil {
		return nil
	}
	return c.Byzantine
}

// StepComm is one cluster step's communication in the round protocol: a
// CBA's own exchange, or for a BRA the n-1 uploads to the leader (its own
// model is local) plus the result's broadcast to the size-1 other members.
func StepComm(rule LevelRule, comm step.Comm, n, size int) CommStats {
	if !rule.IsCBA() {
		return CommStats{ModelTransfers: (n - 1) + (size - 1)}
	}
	return CommStats{ModelTransfers: comm.ModelTransfers, ScalarMessages: comm.ScalarMessages}
}
