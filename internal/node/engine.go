package node

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"slices"
	"time"

	"abdhfl/internal/consensus"
	"abdhfl/internal/core"
	"abdhfl/internal/nn"
	"abdhfl/internal/rng"
	"abdhfl/internal/step"
	"abdhfl/internal/tensor"
	"abdhfl/internal/transport"
)

// pendKey indexes buffered out-of-phase frames by (kind, round).
type pendKey struct {
	kind  uint8
	round uint32
}

// Run executes the node's roles for every configured round and returns its
// result. It drives everything on the calling goroutine: the engine is a
// sequential protocol actor, like RunHFL's round loop, with concurrency
// confined to the transport underneath.
func (e *Engine) Run() (*Result, error) {
	seedRNG := rng.New(e.cfg.Seed)
	defer e.timer.Stop()
	for round := 0; round < e.ccfg.Rounds; round++ {
		e.curRound = round
		if err := e.runRound(seedRNG, round); err != nil {
			return nil, err
		}
		e.prunePending(round)
		for i := range e.held {
			e.cfg.Endpoint.Release(&e.held[i])
		}
		e.held = e.held[:0]
	}
	if len(e.res.Curve) > 0 {
		e.res.FinalAccuracy = e.res.Curve[len(e.res.Curve)-1].Accuracy
	}
	e.res.FinalParams = e.global
	return &e.res, nil
}

// trainSlots bounds how many of the process's engines train at once to
// the CPUs the process may use: more would train no faster, and each
// borrows a model and workspace from the process pool, which keeps as many
// as were ever out at once. Unbounded, the scheduler decided that number —
// 2 in most node_round runs, up to 57 in a run preempted mid-training —
// and a run that set a new high allocated up to 1.7 MB more.
var trainSlots = make(chan struct{}, runtime.GOMAXPROCS(0))

// runRound executes one global round for this node's roles.
func (e *Engine) runRound(seedRNG *rng.RNG, round int) error {
	roundRNG := seedRNG.DeriveDecimal("round-", round)
	skip := core.DrawRoundSkip(e.ccfg, roundRNG, e.tree)
	clear(e.produces)

	if e.isRoot {
		// The root tallies the round's deterministic trainer activations —
		// the same count RunHFL takes from its trainer's active set.
		for id := 0; id < e.devices; id++ {
			if e.trains(id, round, skip) {
				e.res.TrainerActivations++
			}
		}
		return e.rootRound(roundRNG, round, skip)
	}

	// --- Local training (Algorithm 2) on a borrowed model, into a borrowed
	// vector.
	var update tensor.Vector
	if e.trains(int(e.id), round, skip) {
		trainSlots <- struct{}{}
		s := e.pool.Get()
		s.Model.SetParams(e.global)
		r := roundRNG.DeriveDecimal("device-", int(e.id))
		nn.SGDWS(s.Model, s.WS, e.ccfg.ClientData[e.id], e.ccfg.Local, r)
		update = s.Model.ParamsInto(e.roundVec())
		e.pool.Put(s)
		<-trainSlots
	}

	// --- Uplink: non-leader devices ship the update to their bottom
	// leader (one codec hop); a bottom leader's own update stays local and
	// takes the hop as an in-place transcode. Omission-Byzantine devices
	// train and then silently withhold — their leader stalls them out.
	bc := e.tree.ClusterOf(int(e.id))
	if update != nil {
		if bc.Leader == int(e.id) {
			if err := e.transcodeLocal(update); err != nil {
				return fmt.Errorf("node %d: round %d own update codec: %w", e.id, round, err)
			}
		} else if !e.cfg.Plan.OmitUpload(int(e.id), round) {
			payload, err := e.appendModel(step.Store.Buf(), update)
			if err != nil {
				return fmt.Errorf("node %d: round %d update codec: %w", e.id, round, err)
			}
			if err := e.sendBuf(KindUpdate, bc.Leader, round, payload); err != nil {
				return err
			}
		}
	}

	// --- Aggregation duties (Algorithms 3-4), bottom level up, exactly
	// RunHFL's level loop restricted to the clusters this node leads.
	// Partials whose parent leader is this same process are handed over
	// locally (with the codec hop applied in place); everything else
	// crosses the wire.
	selfPartials := map[[2]int]tensor.Vector{}
	selfAudits := map[[2]int][]WireAudit{}
	for lvl := e.tree.Bottom(); lvl >= 1; lvl-- {
		for _, ci := range e.led[lvl] {
			if err := e.leadCluster(roundRNG, round, lvl, ci, skip, update, selfPartials, selfAudits); err != nil {
				return err
			}
		}
	}

	// The update (sent, or aggregated by its own leader), the collected
	// inputs and the partials have all been read for the last time.
	e.giveBack()

	// --- Dissemination (Algorithm 5): wait for the round's global model,
	// relay the payload bytes verbatim to every cluster this node leads
	// (all broadcast copies carry the same encoding), then take the
	// process's copy if the root published these bytes against this same
	// previous global, or decode them against it into a copy of our own.
	payload, err := e.awaitGlobal(round)
	if err != nil {
		return err
	}
	for lvl := 1; lvl <= e.tree.Bottom(); lvl++ {
		for _, ci := range e.led[lvl] {
			for _, m := range e.tree.Clusters[lvl][ci].Members {
				if m != int(e.id) {
					if err := e.send(KindGlobal, m, round, payload); err != nil {
						return err
					}
				}
			}
		}
	}
	next := e.sh.decoded(e.global, payload)
	if next == nil {
		next = step.Store.Take(e.dim)
		if err := e.decodeModel(next, payload); err != nil {
			return fmt.Errorf("node %d: round %d global decode: %w", e.id, round, err)
		}
	}
	e.global = next
	e.logf("node %d: round %d done", e.id, round)
	return nil
}

// leadCluster collects cluster (lvl, ci)'s inputs, aggregates them, and
// routes the partial toward the root.
func (e *Engine) leadCluster(roundRNG *rng.RNG, round, lvl, ci int, skip map[int]bool, ownUpdate tensor.Vector, selfPartials map[[2]int]tensor.Vector, selfAudits map[[2]int][]WireAudit) error {
	c := e.tree.Clusters[lvl][ci]
	bottom := lvl == e.tree.Bottom()
	kind := KindPartial
	if bottom {
		kind = KindUpdate
	}

	// Expected contributors follow from the deterministic availability
	// draws alone: bottom members that train, upper members whose child
	// cluster produces. Contributions from this same process short-circuit
	// the wire.
	local := map[int]tensor.Vector{}
	var audits []WireAudit
	expect := make(map[transport.NodeID]bool, len(c.Members))
	for mi, m := range c.Members {
		if bottom {
			if !e.trains(m, round, skip) {
				continue
			}
			if m == int(e.id) {
				if ownUpdate != nil {
					local[m] = ownUpdate
				}
				continue
			}
		} else {
			cci := e.tree.ChildIndex(c, mi)
			if !e.clusterProduces(lvl+1, cci, round, skip) {
				continue
			}
			if m == int(e.id) {
				key := [2]int{lvl + 1, cci}
				// A missing entry means this process's own child cluster
				// starved (e.g. every input dropped); no point stalling on
				// ourselves.
				if v, ok := selfPartials[key]; ok {
					local[m] = v
					audits = append(audits, selfAudits[key]...)
				}
				continue
			}
		}
		expect[transport.NodeID(m)] = true
	}

	// Deeper collects wait longer: a child cluster may legitimately spend
	// its own full deadline stalling out a silent member before it sends.
	wait := time.Duration(e.tree.Bottom()-lvl+1) * e.stall
	got, err := e.collect(kind, round, expect, wait)
	if err != nil {
		return err
	}

	// Assemble inputs in member order — the order every aggregation rule
	// and quorum draw in the core engine assumes.
	vecs := make([]tensor.Vector, 0, len(c.Members))
	ids := make([]int, 0, len(c.Members))
	for _, m := range c.Members {
		if v, ok := local[m]; ok {
			vecs = append(vecs, v)
			ids = append(ids, m)
			continue
		}
		raw, ok := got[transport.NodeID(m)]
		if !ok {
			continue
		}
		var mbytes []byte
		if bottom {
			mbytes = raw
		} else {
			var sub []WireAudit
			mbytes, sub, err = decodePartial(raw)
			if err != nil {
				return fmt.Errorf("node %d: round %d cluster (%d,%d) partial from %d: %w", e.id, round, lvl, ci, m, err)
			}
			audits = append(audits, sub...)
		}
		v := e.roundVec()
		if err := e.decodeModel(v, mbytes); err != nil {
			return fmt.Errorf("node %d: round %d cluster (%d,%d) model from %d: %w", e.id, round, lvl, ci, m, err)
		}
		vecs = append(vecs, v)
		ids = append(ids, m)
	}
	if len(vecs) == 0 {
		// Starved entirely (expected contributors all stalled): contribute
		// nothing, like RunHFL's empty-cluster continue; the level above
		// stalls this cluster out in turn.
		return nil
	}

	vecs, ids = step.ApplyQuorum(e.ccfg.Quorum, roundRNG, lvl, ci, vecs, ids)
	rule := e.ccfg.RuleAt(lvl)
	agg, v, comm, err := e.st.Aggregate(rule, e.ccfg.ClusterInput(roundRNG, c, round, vecs, ids, e.roundVec()))
	if err != nil {
		return fmt.Errorf("node %d: round %d cluster (%d,%d): %w", e.id, round, lvl, ci, err)
	}
	audits = append(audits, wireAudit(lvl, ci, round, &v, core.StepComm(rule, comm, len(vecs), c.Size())))

	// Route the partial: level-1 clusters feed the root; deeper ones feed
	// the parent cluster's leader, locally when that leader is this same
	// process (the partial takes the codec hop in place either way).
	parent := int(RootID(e.tree))
	if lvl > 1 {
		parent = e.tree.Parent(lvl, ci).Leader
	}
	if parent == int(e.id) {
		if err := e.transcodeLocal(agg); err != nil {
			return fmt.Errorf("node %d: round %d cluster (%d,%d) partial codec: %w", e.id, round, lvl, ci, err)
		}
		selfPartials[[2]int{lvl, ci}] = agg
		selfAudits[[2]int{lvl, ci}] = audits
		return nil
	}
	payload, err := e.encodePartial(agg, audits)
	if err != nil {
		return fmt.Errorf("node %d: round %d cluster (%d,%d) partial codec: %w", e.id, round, lvl, ci, err)
	}
	return e.sendBuf(KindPartial, parent, round, payload)
}

// rootRound collects the level-1 partials, forms and disseminates the
// global model, and keeps the run's books (σ-accounting, audit, curve) —
// RunHFL's top-of-round duties.
func (e *Engine) rootRound(roundRNG *rng.RNG, round int, skip map[int]bool) error {
	commBefore := e.res.Comm
	level1 := e.tree.Clusters[1]
	expect := make(map[transport.NodeID]bool, len(level1))
	for ci, c := range level1 {
		if e.clusterProduces(1, ci, round, skip) {
			expect[transport.NodeID(c.Leader)] = true
		}
	}
	wait := time.Duration(e.tree.Bottom()+1) * e.stall
	got, err := e.collect(KindPartial, round, expect, wait)
	if err != nil {
		return err
	}

	// The contributors, in level-1 cluster order: the partials that arrived,
	// their model bytes (held frames, valid until the round ends) and the
	// leaders that sent them (the top cluster's members).
	vecs := make([]tensor.Vector, 0, len(level1))
	payloads := make([][]byte, 0, len(level1))
	leaders := make([]int, 0, len(level1))
	var audits []WireAudit
	for _, c := range level1 {
		raw, ok := got[transport.NodeID(c.Leader)]
		if !ok {
			continue
		}
		mbytes, sub, err := decodePartial(raw)
		if err != nil {
			return fmt.Errorf("root: round %d partial from %d: %w", round, c.Leader, err)
		}
		v := e.roundVec()
		if err := e.decodeModel(v, mbytes); err != nil {
			return fmt.Errorf("root: round %d model from %d: %w", round, c.Leader, err)
		}
		vecs = append(vecs, v)
		payloads = append(payloads, mbytes)
		leaders = append(leaders, c.Leader)
		audits = append(audits, sub...)
	}

	// --- ABA ballot exchange: when the global rule is the randomized
	// consensus, the root forwards each contributing leader the partials'
	// model bytes and collects their validation ballots before agreeing.
	// With every row present the result is bit-identical to computing the
	// ballots here, because each leader decodes the same proposal vectors
	// and each remote ballot is the same bits (ShardBallot); missing rows
	// consume the protocol's fault budget.
	var ballots *consensus.BallotSet
	if e.ccfg.Global.NeedsBallots() && len(vecs) > 0 {
		if ballots, err = e.exchangeBallots(round, payloads, leaders); err != nil {
			return err
		}
	}

	// --- Global aggregation (Algorithm 6), into a borrowed vector: the
	// partials' last reader.
	newGlobal, v, comm, err := e.st.Aggregate(e.ccfg.Global, e.ccfg.TopInput(roundRNG, round, vecs, leaders, step.Store.Take(e.dim), ballots))
	if err != nil {
		return fmt.Errorf("root: round %d: %w", round, err)
	}
	e.giveBack()
	top := wireAudit(0, 0, round, &v, core.StepComm(e.ccfg.Global, comm, len(vecs), len(vecs)))
	top.Excluded = v.Excluded
	audits = append(audits, top)
	sortAudits(audits)
	for _, a := range audits {
		e.res.Comm.ModelTransfers += a.Transfers
		e.res.Comm.ScalarMessages += a.Scalars
	}
	e.res.ExcludedByConsensus += v.Excluded
	e.res.Audit = append(e.res.Audit, audits...)
	e.res.Comm.ModelTransfers += e.tree.DisseminationTransfers()

	// --- Dissemination: encode against the previous global (the reference
	// every receiver still holds), apply the same lossy hop to the root's
	// own copy, publish that copy to the process's engines and hand the
	// payload to the top members for relay. A receiver decoding the payload
	// gets the copy bit for bit: the codec hop is the decode it would run.
	payload, err := e.appendModel(step.Store.Buf(), newGlobal)
	if err == nil {
		err = e.decodeModel(newGlobal, payload)
	}
	if err != nil {
		return fmt.Errorf("root: round %d dissemination codec: %w", round, err)
	}
	e.sh.publish(e.global, payload, newGlobal)
	e.global = newGlobal
	for _, m := range e.tree.Top().Members {
		if err := e.send(KindGlobal, m, round, payload); err != nil {
			return err
		}
	}
	step.Store.PutBuf(payload)

	// --- Evaluation, on RunHFL's cadence.
	if e.ccfg.Evaluates(round) {
		s := e.pool.Get()
		s.Model.SetParams(e.global)
		acc, loss := nn.Evaluate(s.Model, e.ccfg.TestData, e.workers)
		e.pool.Put(s)
		stat := core.RoundStat{Round: round + 1, Accuracy: acc, Loss: loss}
		e.res.Curve = append(e.res.Curve, stat)
		if e.ccfg.OnRound != nil {
			e.ccfg.OnRound(stat)
		}
	}

	// Wire-byte accounting: every model transfer this round shipped one
	// codec-encoded vector.
	moved := e.res.Comm.ModelTransfers - commBefore.ModelTransfers
	e.res.Comm.WireBytes += int64(moved) * int64(e.cdc.WireBytes(e.dim))
	e.logf("root: round %d done (%d partials)", round, len(got))
	return nil
}

// exchangeBallots runs the ABA proposal/ballot wire exchange: the root
// sends each contributing level-1 leader every partial's model payload
// plus that leader's consensus member index (KindProposal) — one encoding,
// its member word rewritten per recipient — then collects
// the leaders' validation ballots (KindBallot). Leaders that never answer
// — a dropped proposal or ballot under the fault plan — or answer with a
// malformed ballot, or one naming another member, come back as nil rows:
// silent consensus members the randomized protocol absorbs within its
// fault budget (and recomputes locally beyond it).
func (e *Engine) exchangeBallots(round int, payloads [][]byte, leaders []int) (*consensus.BallotSet, error) {
	expect := make(map[transport.NodeID]bool, len(leaders))
	wire := appendProposals(step.Store.Buf(), 0, payloads)
	for m, ld := range leaders {
		binary.LittleEndian.PutUint32(wire, uint32(m))
		if err := e.send(KindProposal, ld, round, wire); err != nil {
			return nil, err
		}
		expect[transport.NodeID(ld)] = true
	}
	step.Store.PutBuf(wire)
	got, err := e.collect(KindBallot, round, expect, 2*e.stall)
	if err != nil {
		return nil, err
	}
	set := &consensus.BallotSet{Rows: make([][]bool, len(payloads))}
	for m, ld := range leaders {
		raw, ok := got[transport.NodeID(ld)]
		if !ok {
			continue
		}
		member, bits, err := decodeBallot(raw, len(payloads))
		if err == nil && member != m {
			err = fmt.Errorf("member %d want %d", member, m)
		}
		if err != nil {
			e.logf("root: round %d ballot from %d (member %d) is silent: %v", round, ld, m, err)
			continue
		}
		set.Rows[m] = bits
	}
	return set, nil
}

// answerProposal serves one ballot-exchange proposal: the leader decodes
// the root's proposal set against the round-start global (the exact
// vectors the root decoded, so the bits match a central computation),
// computes its validation ballot over them, gives the proposals back and
// ships the ballot, holding f until the round ends.
func (e *Engine) answerProposal(f transport.Frame) error {
	if e.st == nil {
		return fmt.Errorf("node %d: round %d proposal sent to a non-leader", e.id, f.Round)
	}
	member, proposals, err := e.decodeProposals(e.hold(f))
	if err != nil {
		return fmt.Errorf("node %d: round %d proposal: %w", e.id, f.Round, err)
	}
	bits := e.st.ShardBallot(e.ccfg.Global, e.ccfg.ValidationShards, member, proposals)
	e.giveBack()
	return e.sendBuf(KindBallot, int(RootID(e.tree)), int(f.Round), appendBallot(step.Store.Buf(), member, bits))
}

// sendBuf sends payload, a send buffer borrowed from the store, and gives
// the buffer back.
func (e *Engine) sendBuf(kind uint8, to, round int, payload []byte) error {
	err := e.send(kind, to, round, payload)
	step.Store.PutBuf(payload)
	return err
}

// send ships one protocol frame. The transport copies the frame, so
// payload may be a buffer given back right after, and the frame itself is
// the engine's one outbound frame.
func (e *Engine) send(kind uint8, to, round int, payload []byte) error {
	e.out = transport.Frame{Kind: kind, Round: uint32(round), Payload: payload}
	if err := e.cfg.Endpoint.Send(transport.NodeID(to), &e.out); err != nil {
		return fmt.Errorf("node %d: send kind %d to %d: %w", e.id, kind, to, err)
	}
	return nil
}

// collect gathers one frame from every sender in waiting, timing out
// stragglers after wait — the stall-and-continue that realizes quorum
// exclusions on the wire. It deletes each sender from waiting as its frame
// arrives; every sender shares the one deadline, and when it fires the
// senders still waited on stall in ascending id order. Non-matching frames
// are buffered for the protocol step (or same-process collect) they belong
// to.
func (e *Engine) collect(kind uint8, round int, waiting map[transport.NodeID]bool, wait time.Duration) (map[transport.NodeID][]byte, error) {
	got := make(map[transport.NodeID][]byte, len(waiting))
	if len(waiting) == 0 {
		return got, nil
	}
	deadline := e.after(wait)
	e.takePending(kind, round, waiting, got)
	for len(waiting) > 0 {
		select {
		case f := <-e.q.C:
			e.accept(f, kind, round, waiting, got)
		case <-e.busDone:
			return got, fmt.Errorf("node %d: transport closed while collecting kind %d round %d", e.id, kind, round)
		case <-deadline:
			stalled := make([]transport.NodeID, 0, len(waiting))
			for p := range waiting {
				stalled = append(stalled, p)
			}
			slices.Sort(stalled)
			for _, p := range stalled {
				e.res.Stalls++
				e.logf("node %d: round %d stalled waiting on %d (kind %d)", e.id, round, p, kind)
			}
			return got, nil
		}
	}
	return got, nil
}

// accept matches one received frame against an in-progress collect,
// buffering frames that belong elsewhere and dropping stale rounds.
func (e *Engine) accept(f transport.Frame, kind uint8, round int, waiting map[transport.NodeID]bool, got map[transport.NodeID][]byte) {
	if f.Kind == kind && int(f.Round) == round && waiting[f.From] {
		got[f.From] = e.hold(f)
		delete(waiting, f.From)
		return
	}
	e.stash(f)
}

// awaitGlobal blocks until the round's disseminated global model arrives,
// serving any ballot-exchange proposals that land (or were buffered) in
// the meantime — a level-1 leader is always parked here when the root's
// KindProposal arrives.
func (e *Engine) awaitGlobal(round int) ([]byte, error) {
	pkey := pendKey{KindProposal, uint32(round)}
	for _, f := range e.pending[pkey] {
		if err := e.answerProposal(f); err != nil {
			return nil, err
		}
	}
	delete(e.pending, pkey)
	key := pendKey{KindGlobal, uint32(round)}
	if fs := e.pending[key]; len(fs) > 0 {
		payload := e.hold(fs[0])
		if len(fs) == 1 {
			delete(e.pending, key)
		} else {
			e.pending[key] = fs[1:]
		}
		return payload, nil
	}
	fire := e.after(e.gwait)
	for {
		select {
		case f := <-e.q.C:
			if f.Kind == KindGlobal && int(f.Round) == round {
				return e.hold(f), nil
			}
			if f.Kind == KindProposal && int(f.Round) == round {
				if err := e.answerProposal(f); err != nil {
					return nil, err
				}
				continue
			}
			e.stash(f)
		case <-e.busDone:
			return nil, fmt.Errorf("node %d: transport closed while awaiting round %d global", e.id, round)
		case <-fire:
			return nil, fmt.Errorf("node %d: round %d global model never arrived (waited %v)", e.id, round, e.gwait)
		}
	}
}

// after re-arms the engine's one timer to fire in d and returns its channel,
// first draining a tick an earlier wait left unread (go 1.22 timers keep it).
func (e *Engine) after(d time.Duration) <-chan time.Time {
	if !e.timer.Stop() && len(e.timer.C) > 0 {
		<-e.timer.C
	}
	e.timer.Reset(d)
	return e.timer.C
}

// hold keeps a consumed frame until its round ends, when Run releases it,
// and returns its payload.
func (e *Engine) hold(f transport.Frame) []byte {
	e.held = append(e.held, f)
	return f.Payload
}

// stash buffers an out-of-phase frame for a later protocol step; frames
// from already-finished rounds are released.
func (e *Engine) stash(f transport.Frame) {
	if int(f.Round) < e.curRound {
		e.cfg.Endpoint.Release(&f)
		return
	}
	key := pendKey{f.Kind, f.Round}
	e.pending[key] = append(e.pending[key], f)
}

// takePending consumes buffered frames matching an in-progress collect.
func (e *Engine) takePending(kind uint8, round int, waiting map[transport.NodeID]bool, got map[transport.NodeID][]byte) {
	key := pendKey{kind, uint32(round)}
	fs, ok := e.pending[key]
	if !ok {
		return
	}
	rest := fs[:0]
	for _, f := range fs {
		if waiting[f.From] {
			got[f.From] = e.hold(f)
			delete(waiting, f.From)
		} else {
			rest = append(rest, f)
		}
	}
	if len(rest) == 0 {
		delete(e.pending, key)
	} else {
		e.pending[key] = rest
	}
}

// prunePending releases buffered frames from the just-finished round —
// duplicates and frames no collect was waiting for.
func (e *Engine) prunePending(round int) {
	for k, fs := range e.pending {
		if int(k.round) <= round {
			for i := range fs {
				e.cfg.Endpoint.Release(&fs[i])
			}
			delete(e.pending, k)
		}
	}
}
