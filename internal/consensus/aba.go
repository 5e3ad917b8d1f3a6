package consensus

import (
	"errors"
	"fmt"
	"math"

	"abdhfl/internal/rng"
	"abdhfl/internal/simnet"
	"abdhfl/internal/tensor"
)

// This file implements the common-coin randomized Asynchronous Byzantine
// Agreement of the ROADMAP's "randomized asynchronous consensus" item, in
// the Mostéfaoui–Moumen–Raynal signature-free round structure (the ABA main
// loop of SNIPPETS.md §7):
//
//	round r:  BV-broadcast BVAL(r, est); bin_values grows as support passes
//	          f+1 (echo) and 2f+1 (deliver);
//	          broadcast AUX(r, v) for the first delivered v;
//	          wait for n-f AUX whose values all lie in bin_values;
//	          s ← common coin for round r, and grade the support:
//	            strength 2: unanimous value v and v == s → est ← v and
//	                        A-Cast COMPLETE(v);
//	            strength 1: unanimous value v, v != s  → est ← v;
//	            strength 0: both values seen           → est ← s.
//	terminate: upon t+1 = f+1 COMPLETE(v): echo COMPLETE(v), output v, halt.
//
// A received COMPLETE(v) counts as its sender's BVAL(r, v) and AUX(r, v)
// for every round, so members that terminate early keep contributing to the
// quorums of members still running — the standard liveness amendment.
//
// The protocol executes as a message-level simulation on simnet's event
// queue, one simnet.Sim per binary instance with a node per member: each
// message is an argument timer on its recipient (kind, round, value and
// sender packed into the timer's int), fired in simnet's (deliver-at, seq)
// order, and Sim.Stop ends the instance at the last honest decision.
// simnet's own latency and fault streams stay unused: per-message delays
// (jitter, adversarial heavy tails, drop-as-retransmission penalties,
// duplicates) come from the Schedule's labeled stream, consumed in event
// order, the Byzantine members' equivocation from another, and the common
// coin for (instance, round) is derived by label alone — rng.Derive/DeriveN
// never advance their parent, so every member, every process, and every
// Workers setting computes the identical coin. That makes an ABA run a pure
// function of (seed, inputs), byte-identical across reruns, worker counts,
// and transports, while still exercising genuinely adversarial asynchronous
// schedules.

// Schedule shapes the seeded delivery model of the ABA simulation. The zero
// value delivers everything instantly; DefaultSchedule gives a mildly
// asynchronous network. Dropped messages become bounded retransmission
// penalties — asynchrony, not loss, matching the model ABA assumes.
type Schedule struct {
	// BaseMS is the minimum link latency in virtual milliseconds.
	BaseMS float64
	// JitterMS adds a uniform [0, JitterMS) component per message.
	JitterMS float64
	// HeavyProb is the per-message probability of an adversarial delay of
	// uniform [0, HeavyMS) extra milliseconds.
	HeavyProb float64
	// HeavyMS bounds the adversarial delay.
	HeavyMS float64
	// DropProb is the per-message probability of a first-transmission loss;
	// the retransmission lands after an extra [ResendMS, 2*ResendMS) delay.
	DropProb float64
	// ResendMS is the retransmission penalty base.
	ResendMS float64
	// DupProb is the per-message probability of a duplicate delivery
	// (receivers deduplicate, as the transport layer's DupeMap does).
	DupProb float64
}

// DefaultSchedule is the mildly asynchronous network ABA.Agree uses when no
// schedule is configured.
func DefaultSchedule() Schedule {
	return Schedule{BaseMS: 5, JitterMS: 2, HeavyProb: 0.05, HeavyMS: 20, DropProb: 0.02, ResendMS: 40, DupProb: 0.02}
}

// ABA is the common-coin randomized Asynchronous Byzantine Agreement CBA:
// members exchange validation-voting ballots (the same kernel Voting uses),
// then run one binary ABA instance per proposal on the tallied input bits.
// With zero faults every member holds the identical ballot set, so ABA's
// validity property forces the decision to equal Voting's — the equivalence
// the chaostest sweeps pin — while under crash/omission/churn the round
// structure keeps deciding where a fixed-quorum protocol would stall.
type ABA struct {
	// Margin is the ballot score slack, as in Voting; zero selects 0.1.
	Margin float64
	// KeepFraction is the ballot tally threshold, as in Voting; zero
	// selects 0.5.
	KeepFraction float64
	// MaxRounds bounds the coin rounds per binary instance; zero selects 64.
	// Termination is probabilistic (expected two coin rounds), so hitting
	// the bound is a deterministic, reproducible error, not a flake.
	MaxRounds int
	// Schedule overrides the delivery model; nil selects DefaultSchedule.
	Schedule *Schedule
	// Trace, when set, receives one line per protocol event (bin_values
	// deliveries, COMPLETE casts, round advances, decisions) — the
	// transcript the worker-invariance tests compare byte-for-byte.
	Trace func(event string)
}

// Name implements Protocol.
func (ABA) Name() string { return "aba" }

// Agree implements Protocol.
func (a ABA) Agree(ctx *Context, proposals []tensor.Vector) (tensor.Vector, Stats, error) {
	return agree(a, ctx, proposals)
}

// AgreeInto implements Protocol.
func (a ABA) AgreeInto(dst tensor.Vector, ctx *Context, proposals []tensor.Vector) (Stats, error) {
	if err := ctx.checkInto(dst, proposals); err != nil {
		return Stats{}, err
	}
	n := ctx.Members
	f := (n - 1) / 3
	v := Voting{Margin: a.Margin, KeepFraction: a.KeepFraction}

	// --- Ballot phase: each member's up/down votes over the proposals.
	// Externally collected rows (the node engine ships them over the wire)
	// are used as-is; missing rows mark crashed members within the fault
	// budget f, and anything beyond the budget is recomputed locally so the
	// instances still satisfy their quorums deterministically.
	byzCount := 0
	for i := 0; i < n; i++ {
		if ctx.isByz(i) {
			byzCount++
		}
	}
	ballots := make([][]bool, n)
	silent := map[int]bool{}
	if ctx.Ballots != nil {
		for i := 0; i < n && i < len(ctx.Ballots.Rows); i++ {
			if row := ctx.Ballots.Rows[i]; len(row) == n {
				ballots[i] = row
			}
		}
		budget := f - byzCount
		for i := 0; i < n; i++ {
			if ballots[i] == nil && !ctx.isByz(i) && budget > 0 {
				silent[i] = true
				budget--
			}
		}
	}
	needCompute := false
	for i := range ballots {
		if ballots[i] == nil && !silent[i] {
			needCompute = true
		}
	}
	if needCompute && ctx.Validator == nil {
		return Stats{}, errors.New("consensus: aba requires a validator")
	}
	forEachMember(ctx.workers(), n, func(i int) {
		if ballots[i] == nil && !silent[i] {
			ballots[i] = v.votes(ctx, i, proposals, make([]bool, 0, len(proposals)))
		}
	})

	// --- Input bits: tally the ballot set every active member holds and
	// apply Voting's keep rule. Active members therefore start every binary
	// instance unanimously, and ABA validity pins the decision to the tally
	// — the genuinely divergent-input regime is RunBinaryABA's province.
	counts := make([]int, n)
	for _, b := range ballots {
		tally(counts, b)
	}
	keptIdx, _ := v.decide(counts, n, nil)
	inputBit := make([]int, n)
	for _, j := range keptIdx {
		inputBit[j] = 1
	}

	// --- One binary ABA instance per proposal. The instances are
	// independent and would run concurrently on a real wire, so latency is
	// the max over instances while messages accumulate.
	sched := DefaultSchedule()
	if a.Schedule != nil {
		sched = *a.Schedule
	}
	maxRounds := a.MaxRounds
	if maxRounds <= 0 {
		maxRounds = 64
	}
	byzSet := map[int]bool{}
	for i := 0; i < n; i++ {
		if ctx.isByz(i) {
			byzSet[i] = true
		}
	}
	sim, err := newABASim(n, byzSet, silent, sched, maxRounds, ctx.Rand.Derive("common-coin"))
	if err != nil {
		return Stats{}, err
	}
	inputs := make([]int, n)
	st := Stats{Votes: counts}
	var kept []tensor.Vector
	for j := 0; j < n; j++ {
		for i := range inputs {
			inputs[i] = inputBit[j]
		}
		inst := ctx.Rand.DeriveN("aba-instance", uint64(j))
		var tr func(string)
		if a.Trace != nil {
			jj := j
			tr = func(ev string) { a.Trace(fmt.Sprintf("p%d %s", jj, ev)) }
		}
		out, err := sim.run(inst.Derive("schedule"), inst.Derive("adversary"), uint64(j), inputs, tr)
		if err != nil {
			return Stats{}, fmt.Errorf("consensus: aba proposal %d: %w", j, err)
		}
		decision := -1
		for _, d := range out.Decisions {
			if d < 0 {
				continue
			}
			if decision < 0 {
				decision = d
			} else if d != decision {
				return Stats{}, fmt.Errorf("consensus: aba proposal %d: honest members disagree (safety violation)", j)
			}
		}
		if decision < 0 {
			return Stats{}, fmt.Errorf("consensus: aba proposal %d: no honest member decided", j)
		}
		if out.Rounds > st.CoinRounds {
			st.CoinRounds = out.Rounds
		}
		if out.VirtualMS > st.VirtualMS {
			st.VirtualMS = out.VirtualMS
		}
		st.Messages += out.Messages
		if decision == 1 {
			kept = append(kept, proposals[j])
		} else {
			st.Excluded = append(st.Excluded, j)
		}
	}
	if len(kept) == 0 {
		// Unreachable with unanimous inputs (validity keeps at least the
		// tally's fallback proposal), but mirror Voting's best-count
		// fallback so the protocol can never return an empty average.
		best := 0
		for j := range counts {
			if counts[j] > counts[best] {
				best = j
			}
		}
		kept = append(kept, proposals[best])
		st.Excluded = st.Excluded[:0]
		for j := 0; j < n; j++ {
			if j != best {
				st.Excluded = append(st.Excluded, j)
			}
		}
	}
	// Proposal broadcast + ballot exchange, then the coin rounds.
	st.Rounds = 2 + st.CoinRounds
	st.ModelTransfers = n * (n - 1)
	st.Messages += 2 * n * (n - 1)
	tensor.Mean(dst, kept)
	return st, nil
}

// BinaryOutcome reports one binary ABA instance.
type BinaryOutcome struct {
	// Decisions[i] is member i's decided bit; -1 for Byzantine or silent
	// members (honest members always decide when the error is nil).
	Decisions []int
	// Rounds is the highest coin round any honest member decided in.
	Rounds int
	// Messages counts every point-to-point message put on the simulated
	// wire, duplicates included.
	Messages int
	// VirtualMS is the virtual time at which the last honest member decided.
	VirtualMS float64
}

// RunBinaryABA executes one binary ABA instance with explicit per-member
// input bits under the given delivery schedule — the entry point of the
// adversarial-schedule conformance suite. byzantine members equivocate
// (driven by a seeded adversary stream); silent members never send. The run
// is a pure function of (r, inputs, byzantine, silent, sched, maxRounds).
func RunBinaryABA(r *rng.RNG, inputs []int, byzantine, silent map[int]bool, sched *Schedule, maxRounds int, trace func(string)) (BinaryOutcome, error) {
	if r == nil {
		r = rng.New(0)
	}
	cfg := DefaultSchedule()
	if sched != nil {
		cfg = *sched
	}
	if maxRounds <= 0 {
		maxRounds = 64
	}
	sim, err := newABASim(len(inputs), byzantine, silent, cfg, maxRounds, r.Derive("common-coin"))
	if err != nil {
		return BinaryOutcome{}, err
	}
	return sim.run(r.Derive("aba-schedule"), r.Derive("aba-adversary"), 0, inputs, trace)
}

// Message kinds of the binary instance.
const (
	abaBval = 1 + iota
	abaAux
	abaComplete
)

type abaMsg struct {
	kind  int
	round int
	val   int
	from  int
}

// A message travels as an argument timer on its recipient, packed into the
// timer's int: bit 0 the value, bits 1–2 the kind, the next abaMemberBits
// the sender, the rest the round.
const abaMemberBits = 16

func (m abaMsg) pack() int {
	return (m.round<<abaMemberBits|m.from)<<3 | m.kind<<1 | m.val
}

func unpackABA(arg int) abaMsg {
	return abaMsg{
		kind:  arg >> 1 & 3,
		round: arg >> (3 + abaMemberBits),
		val:   arg & 1,
		from:  arg >> 3 & (1<<abaMemberBits - 1),
	}
}

// abaRoundState is one member's per-round BV-broadcast and AUX state; its
// slices are indexed by sender.
type abaRoundState struct {
	bval     []uint8 // per sender: bit v set once its BVAL(v) arrived
	aux      []uint8 // per sender: its first AUX value plus one; 0 before
	nbval    [2]int  // BVAL(v) senders seen
	sentBval [2]bool
	bin      [2]bool // bin_values
	first    int8    // the first value that entered bin_values; -1 before
	auxSent  bool
}

type abaNode struct {
	id           int
	byz          bool
	silent       bool
	est          int
	round        int
	rounds       []abaRoundState // by round, grown on first use
	completeSent [2]bool
	completers   [2][]bool // COMPLETE(v) senders seen (self included)
	ncomplete    [2]int
	decided      bool // decided halts the member too
	decision     int
	decRound     int
	burst        []int8 // Byzantine emissions so far, by round
}

// roundState returns nd's state for round r among n members. The pointer
// is good until the next call for a later round, which may move the slice.
func (nd *abaNode) roundState(r, n int) *abaRoundState {
	if r >= len(nd.rounds) {
		nd.rounds = append(nd.rounds, make([]abaRoundState, r+1-len(nd.rounds))...)
	}
	rs := &nd.rounds[r]
	if rs.bval == nil {
		marks := make([]uint8, 2*n)
		rs.bval, rs.aux = marks[:n], marks[n:]
		rs.first = -1
	}
	return rs
}

// reset returns nd to an instance's start with input bit est. It keeps
// nd's identity and, cleared, its round states' marks and its slabs.
func (nd *abaNode) reset(est int) {
	for r := range nd.rounds {
		rs := &nd.rounds[r]
		clear(rs.bval)
		clear(rs.aux)
		*rs = abaRoundState{bval: rs.bval, aux: rs.aux, first: -1}
	}
	clear(nd.burst)
	*nd = abaNode{id: nd.id, byz: nd.byz, silent: nd.silent, est: est & 1, round: 1,
		rounds: nd.rounds, completers: nd.completers, burst: nd.burst}
}

// abaSim runs one binary instance on a simnet queue: every message is an
// argument timer on its recipient, at the delivery time the Schedule's own
// stream draws, so events fire in (deliver-at, seq) order, latency draws are
// consumed in that order, and the common coin is derived by label — the
// whole run replays bit-for-bit.
type abaSim struct {
	n, f      int
	maxRounds int
	cfg       Schedule
	faulty    int // Byzantine or silent members
	nodes     []abaNode
	// completers and decisions are slabs: the members' COMPLETE senders
	// and run's outcome.
	completers []bool
	decisions  []int
	sim        *simnet.Sim
	sched      *rng.RNG
	adv        *rng.RNG
	coinRNG    *rng.RNG
	coinBase   uint64
	trace      func(string)
	messages   int
	undecided  int
	lastMS     float64
	err        error
}

// newABASim checks one instance shape — n members, the byzantine and
// silent ones, under cfg — and builds the simulator, members and slabs that
// every instance of that shape reuses (run resets them).
func newABASim(n int, byzantine, silent map[int]bool, cfg Schedule, maxRounds int, coinRNG *rng.RNG) (*abaSim, error) {
	if n == 0 {
		return nil, errors.New("consensus: aba with no members")
	}
	if n > 1<<abaMemberBits || maxRounds >= math.MaxInt>>(3+abaMemberBits) {
		return nil, fmt.Errorf("consensus: aba packs at most %d members and %d rounds into a message, not %d and %d",
			1<<abaMemberBits, math.MaxInt>>(3+abaMemberBits)-1, n, maxRounds)
	}
	if !(cfg.BaseMS >= 0 && cfg.JitterMS >= 0 && cfg.HeavyMS >= 0 && cfg.ResendMS >= 0) {
		return nil, errors.New("consensus: aba schedule with a negative delay")
	}
	s := &abaSim{
		n: n, f: (n - 1) / 3, maxRounds: maxRounds, cfg: cfg,
		sim:        simnet.New(nil, nil),
		coinRNG:    coinRNG,
		nodes:      make([]abaNode, n),
		completers: make([]bool, 2*n*n),
		decisions:  make([]int, n),
	}
	s.sim.MaxEvents = 1 << 21
	s.sim.Reserve(2 * n * n)      // about the peak of pending messages
	for i := n - 1; i >= 0; i-- { // the highest id first sizes simnet's table once
		s.sim.Register(simnet.NodeID(i), s)
	}
	for i := range s.nodes {
		c := s.completers[2*i*n : 2*(i+1)*n]
		s.nodes[i] = abaNode{id: i, byz: byzantine[i], silent: silent[i] && !byzantine[i], completers: [2][]bool{c[:n], c[n:]}}
		if byzantine[i] || silent[i] {
			s.faulty++
		}
	}
	if s.faulty > s.f {
		return nil, fmt.Errorf("consensus: aba with %d faulty members exceeds f=%d (n=%d)", s.faulty, s.f, n)
	}
	return s, nil
}

// run plays one instance on s from a fresh state. The outcome's Decisions
// is s's buffer, good until the next run.
func (s *abaSim) run(sched, adv *rng.RNG, coinBase uint64, inputs []int, trace func(string)) (BinaryOutcome, error) {
	n := s.n
	s.sim.Reset()
	clear(s.completers)
	s.sched, s.adv, s.coinBase, s.trace = sched, adv, coinBase, trace
	s.messages, s.undecided, s.lastMS, s.err = 0, n-s.faulty, 0, nil
	for i := range s.nodes {
		s.nodes[i].reset(inputs[i])
	}
	// Round 1 openers: honest members BV-broadcast their input; Byzantine
	// members open with per-recipient equivocating BVALs.
	for i := range s.nodes {
		nd := &s.nodes[i]
		switch {
		case nd.silent:
		case nd.byz:
			for to := 0; to < n; to++ {
				if to != nd.id {
					s.sendTo(to, abaMsg{abaBval, 1, int(s.adv.Uint64() & 1), nd.id})
				}
			}
		default:
			nd.roundState(1, n).sentBval[nd.est] = true
			s.broadcast(abaMsg{abaBval, 1, nd.est, nd.id})
		}
	}
	if _, err := s.sim.Run(0); err != nil && s.err == nil {
		s.err = errors.New("consensus: aba event cap exceeded (liveness failure)")
	}
	if s.err == nil && s.undecided > 0 {
		s.err = errors.New("consensus: aba stalled before every honest member decided")
	}
	if s.err != nil {
		return BinaryOutcome{}, s.err
	}
	out := BinaryOutcome{
		Decisions: s.decisions,
		Messages:  s.messages,
		VirtualMS: s.lastMS,
	}
	for i := range s.nodes {
		if nd := &s.nodes[i]; nd.decided {
			out.Decisions[i] = nd.decision
			if nd.decRound > out.Rounds {
				out.Rounds = nd.decRound
			}
		} else {
			out.Decisions[i] = -1
		}
	}
	return out, nil
}

// OnMessage implements simnet.Handler. ABA sends no simnet messages: every
// delivery is an argument timer.
func (s *abaSim) OnMessage(*simnet.Context, simnet.Message) {}

// OnTimer delivers one message to its recipient, and ends the run at the
// last honest decision or the first error.
func (s *abaSim) OnTimer(ctx *simnet.Context, arg int) {
	s.deliver(&s.nodes[ctx.Self()], unpackABA(arg))
	if s.err != nil || s.undecided == 0 {
		s.sim.Stop()
	}
}

func (s *abaSim) tracef(format string, args ...any) {
	if s.trace != nil {
		s.trace(fmt.Sprintf(format, args...))
	}
}

// coin is the deterministic seeded common coin for round r of this
// instance: a pure label derivation, so every member — on any process —
// reads the same flip without exchanging a single message.
func (s *abaSim) coin(r int) int {
	return int(s.coinRNG.DeriveN("flip", s.coinBase<<16|uint64(r)).Uint64() & 1)
}

// Latency draws one message's delivery delay from the schedule: base plus
// uniform jitter, an occasional heavy tail, and drop-as-resend (a dropped
// message is re-sent after the resend timer, so loss manifests as delay —
// the asynchronous model never loses messages forever). Consumes a
// deterministic number of draws per branch from r, so a fixed stream
// yields a fixed delay sequence.
func (c Schedule) Latency(r *rng.RNG) float64 {
	l := c.BaseMS
	if c.JitterMS > 0 {
		l += c.JitterMS * r.Float64()
	}
	if c.HeavyProb > 0 && r.Float64() < c.HeavyProb {
		l += c.HeavyMS * r.Float64()
	}
	if c.DropProb > 0 && r.Float64() < c.DropProb {
		l += c.ResendMS * (1 + r.Float64())
	}
	return l
}

func (s *abaSim) sendTo(to int, m abaMsg) {
	at := s.sim.Now() + simnet.Time(s.cfg.Latency(s.sched))
	s.sim.AtArg(simnet.NodeID(to), at, m.pack())
	s.messages++
	if s.cfg.DupProb > 0 && s.sched.Float64() < s.cfg.DupProb {
		s.sim.AtArg(simnet.NodeID(to), at+simnet.Time(s.cfg.BaseMS*s.sched.Float64()), m.pack())
		s.messages++
	}
}

// broadcast ships m to every member; the self-copy is delivered through the
// queue at zero latency so handlers never re-enter.
func (s *abaSim) broadcast(m abaMsg) {
	for to := 0; to < s.n; to++ {
		if to == m.from {
			s.sim.AtArg(simnet.NodeID(to), s.sim.Now(), m.pack())
			continue
		}
		s.sendTo(to, m)
	}
}

func (s *abaSim) deliver(nd *abaNode, m abaMsg) {
	if nd.silent || nd.decided {
		return
	}
	if nd.byz {
		s.byzReact(nd, m)
		return
	}
	switch m.kind {
	case abaBval:
		rs := nd.roundState(m.round, s.n)
		if rs.bval[m.from]&(1<<m.val) != 0 {
			return
		}
		rs.bval[m.from] |= 1 << m.val
		rs.nbval[m.val]++
		s.roundEcho(nd, m.round)
	case abaAux:
		rs := nd.roundState(m.round, s.n)
		if rs.aux[m.from] != 0 {
			return
		}
		rs.aux[m.from] = uint8(m.val) + 1
	case abaComplete:
		if nd.completers[m.val][m.from] {
			return
		}
		nd.completers[m.val][m.from] = true
		nd.ncomplete[m.val]++
	}
	s.progress(nd)
}

// support counts the distinct BVAL(r, v) senders nd has seen, with COMPLETE
// senders standing in for BVALs of every round.
func (s *abaSim) support(nd *abaNode, rs *abaRoundState, v int) int {
	c := rs.nbval[v]
	if nd.ncomplete[v] > 0 {
		for p, done := range nd.completers[v] {
			if done && rs.bval[p]&(1<<v) == 0 {
				c++
			}
		}
	}
	return c
}

// roundEcho applies the BV-broadcast echo and delivery rules for round r —
// independently of nd's current round, as BV-broadcast requires.
func (s *abaSim) roundEcho(nd *abaNode, r int) {
	rs := nd.roundState(r, s.n)
	for v := 0; v < 2; v++ {
		c := s.support(nd, rs, v)
		if c >= s.f+1 && !rs.sentBval[v] {
			rs.sentBval[v] = true
			s.broadcast(abaMsg{abaBval, r, v, nd.id})
		}
		if c >= 2*s.f+1 && !rs.bin[v] {
			rs.bin[v] = true
			if rs.first < 0 {
				rs.first = int8(v)
			}
			s.tracef("n%d r%d bin+%d", nd.id, r, v)
		}
	}
}

// progress drives nd through every protocol step its current state allows:
// termination check, echoes, AUX, and the coin-graded round advance.
func (s *abaSim) progress(nd *abaNode) {
	for !nd.decided {
		// Termination: f+1 COMPLETE(v) → echo the COMPLETE, output v, halt.
		for v := 0; v < 2; v++ {
			if nd.ncomplete[v] >= s.f+1 {
				if !nd.completeSent[v] {
					s.sendComplete(nd, v)
				}
				s.decide(nd, v)
				return
			}
		}
		r := nd.round
		s.roundEcho(nd, r) // COMPLETEs may have unlocked current-round echoes
		rs := nd.roundState(r, s.n)
		if !rs.auxSent && rs.first >= 0 {
			rs.auxSent = true
			s.broadcast(abaMsg{abaAux, r, int(rs.first), nd.id})
		}
		if !rs.auxSent {
			return
		}
		// Gather n-f AUX whose values lie in bin_values; COMPLETE senders
		// stand in for AUX of every round. Each sender counts once.
		count := 0
		var seen [2]bool
		for p := 0; p < s.n; p++ {
			if a := rs.aux[p]; a != 0 {
				if v := a - 1; rs.bin[v] {
					count++
					seen[v] = true
				}
				continue
			}
			if rs.bin[0] && nd.completers[0][p] {
				count++
				seen[0] = true
				continue
			}
			if rs.bin[1] && nd.completers[1][p] {
				count++
				seen[1] = true
			}
		}
		if count < s.n-s.f {
			return
		}
		coin := s.coin(r)
		// Vote strength (SNIPPETS.md §7): 2 = unanimous support matching
		// the coin → A-Cast COMPLETE; 1 = unanimous against the coin →
		// adopt the value; 0 = mixed support → adopt the coin.
		if seen[0] != seen[1] {
			v := 0
			if seen[1] {
				v = 1
			}
			nd.est = v
			if v == coin && !nd.completeSent[v] {
				s.sendComplete(nd, v)
			}
		} else {
			nd.est = coin
		}
		nd.round++
		s.tracef("n%d r%d->%d est%d coin%d", nd.id, r, nd.round, nd.est, coin)
		if nd.round > s.maxRounds {
			s.err = fmt.Errorf("consensus: aba exceeded %d coin rounds without termination", s.maxRounds)
			return
		}
		nrs := nd.roundState(nd.round, s.n)
		if !nrs.sentBval[nd.est] {
			nrs.sentBval[nd.est] = true
			s.broadcast(abaMsg{abaBval, nd.round, nd.est, nd.id})
		}
		// Loop: messages that arrived early may already satisfy the new
		// round (or the termination condition).
	}
}

func (s *abaSim) sendComplete(nd *abaNode, v int) {
	nd.completeSent[v] = true
	nd.completers[v][nd.id] = true
	nd.ncomplete[v]++
	s.broadcast(abaMsg{abaComplete, 0, v, nd.id})
	s.tracef("n%d complete%d", nd.id, v)
}

func (s *abaSim) decide(nd *abaNode, v int) {
	nd.decided = true
	nd.decision = v
	nd.decRound = nd.round
	s.undecided--
	if now := float64(s.sim.Now()); now > s.lastMS {
		s.lastMS = now
	}
	s.tracef("n%d decide%d r%d", nd.id, v, nd.round)
}

// byzReact is the Byzantine members' behavior: on (a budgeted fraction of)
// deliveries they equivocate — per-recipient random BVAL/AUX for the
// message's round or the next — and occasionally cast a COMPLETE. With at
// most f Byzantine members their COMPLETEs never reach the f+1 termination
// threshold on their own, so safety rests where MMR puts it: on the BV and
// AUX quorum intersections.
func (s *abaSim) byzReact(nd *abaNode, m abaMsg) {
	r := m.round
	if r < 1 {
		r = 1
	}
	if r > s.maxRounds {
		return
	}
	if r >= len(nd.burst) {
		nd.burst = append(nd.burst, make([]int8, r+1-len(nd.burst))...)
	}
	if nd.burst[r] >= 2 {
		return
	}
	if s.adv.Float64() >= 0.3 {
		return
	}
	nd.burst[r]++
	for to := 0; to < s.n; to++ {
		if to == nd.id {
			continue
		}
		v := int(s.adv.Uint64() & 1)
		rr := r
		if s.adv.Float64() < 0.3 {
			rr++
		}
		kind := abaBval
		if s.adv.Float64() < 0.5 {
			kind = abaAux
		}
		s.sendTo(to, abaMsg{kind, rr, v, nd.id})
	}
	if s.adv.Float64() < 0.05 {
		v := int(s.adv.Uint64() & 1)
		for to := 0; to < s.n; to++ {
			if to != nd.id {
				s.sendTo(to, abaMsg{abaComplete, 0, v, nd.id})
			}
		}
	}
}
