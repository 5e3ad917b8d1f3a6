// Package node hosts one ABD-HFL protocol role — device, cluster leader
// (a device with aggregation duties), or root — as a standalone actor
// speaking protocol frames over an internal/transport Endpoint. A set of
// node engines, one per tree position plus the root, executes the same
// rounds RunHFL executes in one process: devices train locally and upload
// updates, leaders collect cluster inputs (stalling out silent peers and
// falling back to the quorum they have), aggregate with the configured
// rule, and forward partials up the tree, and the root forms the global
// model and disseminates it back down through the leader relay chain.
//
// The engine leans on the repo-wide determinism discipline: every random
// draw in the core round engine comes from a labeled stream Derived (not
// Split) from the run seed, so any process can recompute any stream
// locally. That is what lets a leader know which contributors to expect
// each round without signaling — churn, cohort sampling, and fault-plan
// availability are all pure functions of (config, seed, round) — and what
// makes a distributed run byte-identical to core.RunHFL for the supported
// configuration subset (no omniscient ModelAttack, no RotateLeaders:
// both need a global view no single process has; no LeaderFailures:
// that fault mode targets the simulator engines, a real leader process
// is either running or not).
//
// Fault injection happens at the transport layer, on the quorum-protected
// upward path only (updates and partials — see FaultableKinds): a dropped
// upward frame turns into a deterministic stall-timeout exclusion at its
// collector, exercising exactly the φ-quorum machinery the paper builds.
// Dissemination frames are exempt, matching the protocol's assumption
// that the downlink broadcast is reliable rather than retransmitted.
package node

import (
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"abdhfl"
	"abdhfl/internal/codec"
	"abdhfl/internal/core"
	"abdhfl/internal/fault"
	"abdhfl/internal/nn"
	"abdhfl/internal/rng"
	"abdhfl/internal/step"
	"abdhfl/internal/tensor"
	"abdhfl/internal/topology"
	"abdhfl/internal/transport"
)

// Protocol frame kinds. Payloads: KindUpdate and KindGlobal carry one
// codec-encoded model (see payload.go); KindPartial
// carries a partial model plus the filter audits accumulated in the
// sender's subtree.
const (
	KindUpdate   uint8 = 1 // device → bottom-cluster leader
	KindPartial  uint8 = 2 // leader → parent leader or root
	KindGlobal   uint8 = 3 // root → top members, relayed down the tree
	KindProposal uint8 = 4 // root → contributing level-1 leaders (ABA ballot exchange)
	KindBallot   uint8 = 5 // leader → root (ABA ballot exchange)
)

// FaultableKinds lists the frame kinds transport fault plans apply to: the
// upward path the quorum machinery protects, plus the ABA ballot exchange
// (a dropped proposal or ballot realizes a silent consensus member — the
// fault the randomized protocol absorbs within its f-budget). Pass to
// transport.Config.FaultKinds.
func FaultableKinds() []uint8 {
	return []uint8{KindUpdate, KindPartial, KindProposal, KindBallot}
}

// RootID is the root's node id: one past the device ids, which run
// 0..NumDevices-1.
func RootID(tree *topology.Tree) transport.NodeID {
	return transport.NodeID(tree.NumDevices())
}

// Config describes one engine's identity and wiring.
type Config struct {
	// Materials is the scenario build every process shares; all of it is
	// derived deterministically from the Scenario, so processes handed the
	// same scenario JSON hold identical materials.
	Materials *abdhfl.Materials
	// Seed is the run seed (usually Scenario.Seed).
	Seed uint64
	// ID is this node: a device id in [0, NumDevices), or RootID(tree).
	ID transport.NodeID
	// Endpoint is the node's attachment to the wire. The engine subscribes
	// to all protocol kinds on its bus; the caller owns Close.
	Endpoint transport.Endpoint
	// Plan, when non-nil, drives device availability (crash, churn) and
	// upload omission inside the engine. Transport-level faults
	// (drop/duplicate/reorder) belong to the Endpoint's own config, not
	// here — both usually point at the same plan.
	Plan *fault.Plan
	// StallAfter is the base collect deadline for one hop (default 5s).
	// Collects higher in the tree wait proportionally longer, so a child
	// cluster's own stall-and-continue fits inside its parent's deadline.
	StallAfter time.Duration
	// GlobalWait bounds the wait for the round's disseminated global model
	// (default (depth+2) × StallAfter). Missing it is fatal: there is no
	// recovery path without the round's reference model.
	GlobalWait time.Duration
	// Logf, when set, receives progress lines (round boundaries, stalls).
	Logf func(format string, args ...any)
	// shared is the state the engines of one run hold in common; the
	// engines RunCluster runs share one, nil gives the engine its own.
	shared *shared
}

// shared is what the engines of one run hold in common: the run's initial
// model, drawn once, and the globals the root last disseminated, decoded.
// Engines sharing one run the same Materials and Seed. Everything else they
// borrow comes from the process store, step.Store.
type shared struct {
	init tensor.Vector

	mu      sync.Mutex
	globals [keptGlobals]decodedGlobal
	next    int // the globals entry the next publish overwrites
}

// keptGlobals is how many decoded globals shared keeps: an engine up to
// that many rounds behind the root still finds its global decoded.
const keptGlobals = 4

// decodedGlobal is one disseminated global: payload, decoded against ref,
// is global bit for bit. The payload is the entry's own copy; ref and
// global are never written again, nor given to the store, so their
// addresses identify them for as long as the entry holds them.
type decodedGlobal struct {
	ref, global tensor.Vector
	payload     []byte
}

// publish records that payload decodes against ref to global, evicting the
// oldest entry. From here on global, like ref, is read-only.
func (s *shared) publish(ref tensor.Vector, payload []byte, global tensor.Vector) {
	s.mu.Lock()
	d := &s.globals[s.next]
	d.ref, d.global = ref, global
	d.payload = append(d.payload[:0], payload...)
	s.next = (s.next + 1) % keptGlobals
	s.mu.Unlock()
}

// decoded returns the published global that payload decodes to against
// ref, or nil. Both key parts must match: the exact bytes, since a peer
// may relay other bytes than the root sent (a hash could be made to
// collide), and the very reference vector, since a codec's output depends
// on it.
func (s *shared) decoded(ref tensor.Vector, payload []byte) tensor.Vector {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range s.globals {
		d := &s.globals[i]
		if len(d.ref) == len(ref) && len(ref) > 0 && &d.ref[0] == &ref[0] && bytes.Equal(d.payload, payload) {
			return d.global
		}
	}
	return nil
}

// Engine is one node's protocol actor. Run drives all of its roles for the
// configured number of rounds on the calling goroutine.
type Engine struct {
	cfg  Config
	ccfg core.Config
	tree *topology.Tree

	id      transport.NodeID
	devices int
	isRoot  bool
	dim     int
	workers int

	q       *transport.Queue
	busDone <-chan struct{}
	stall   time.Duration
	gwait   time.Duration
	timer   *time.Timer  // the one timer every wait arms (after)
	sh      *shared      // Config.shared: the run's initial model and decoded globals
	pool    *nn.EvalPool // the store's pool of the run's model shape

	// st is the cluster step's working memory, present on the root and on
	// every leader: the same step RunHFL runs, applied to the vectors this
	// node collected off the wire. It always records verdicts — they ride up
	// the tree as WireAudits whether or not anyone observes them locally.
	st  *step.Stepper
	led map[int][]int // level → indices of clusters this node leads

	cdc codec.Codec
	cs  *codec.Scratch

	// global, the round-start model every codec hop refers to, is
	// read-only: the root forms the next one into a borrowed vector and
	// publishes it, everyone else takes the published one or decodes its
	// own, and none ever goes back to the store. lent are the vectors
	// roundVec borrowed since the last giveBack: the update, collected
	// inputs, partials, decoded proposals.
	global tensor.Vector
	lent   []tensor.Vector

	curRound int
	produces map[[2]int]bool
	pending  map[pendKey][]transport.Frame
	// held are the frames consumed this round, released to the endpoint
	// when it ends: every payload is decoded into engine memory, relayed
	// (Send copies) or answered within its round.
	held []transport.Frame

	// jsonEnc writes partial audit lists to jsonBuf; out is the frame send
	// hands the endpoint.
	jsonBuf bytes.Buffer
	jsonEnc *json.Encoder
	out     transport.Frame

	res Result
}

// New builds the engine for cfg.ID. It validates the run configuration the
// same way RunHFL does and rejects the configuration subset a distributed
// engine cannot honor.
func New(cfg Config) (*Engine, error) {
	if cfg.Materials == nil {
		return nil, fmt.Errorf("node: nil materials")
	}
	return newEngine(cfg, cfg.Materials.CoreConfig(cfg.Seed))
}

// newEngine is New on the run configuration ccfg, the materials' one
// unless a test sets what they do not (Hidden).
func newEngine(cfg Config, ccfg core.Config) (*Engine, error) {
	if cfg.Endpoint == nil {
		return nil, fmt.Errorf("node: nil endpoint")
	}
	if err := ccfg.Validate(); err != nil {
		return nil, fmt.Errorf("node: %w", err)
	}
	if ccfg.ModelAttack != nil {
		return nil, fmt.Errorf("node: model attacks need the omniscient single-process engine (population statistics of all honest updates)")
	}
	if ccfg.RotateLeaders {
		return nil, fmt.Errorf("node: leader rotation is not supported by the distributed engine")
	}
	if cfg.Plan != nil && len(cfg.Plan.LeaderFailures) > 0 {
		return nil, fmt.Errorf("node: LeaderFailures target the simulator engines; crash the leader's process instead")
	}
	tree := ccfg.Tree
	devices := tree.NumDevices()
	if int(cfg.ID) < 0 || int(cfg.ID) > devices {
		return nil, fmt.Errorf("node: id %d out of range [0, %d]", cfg.ID, devices)
	}
	stall := cfg.StallAfter
	if stall <= 0 {
		stall = 5 * time.Second
	}
	gwait := cfg.GlobalWait
	if gwait <= 0 {
		gwait = time.Duration(tree.Depth()+2) * stall
		if ccfg.Global.NeedsBallots() {
			// The ballot exchange adds one request/response hop at the root
			// before the global can form.
			gwait += 2 * stall
		}
	}
	workers := tensor.ResolveWorkers(ccfg.Workers)
	e := &Engine{
		cfg:      cfg,
		ccfg:     ccfg,
		tree:     tree,
		id:       cfg.ID,
		devices:  devices,
		isRoot:   int(cfg.ID) == devices,
		workers:  workers,
		stall:    stall,
		gwait:    gwait,
		timer:    time.NewTimer(time.Hour),
		sh:       cfg.shared,
		cdc:      cmp.Or[codec.Codec](ccfg.Codec, codec.Identity{}),
		cs:       codec.NewScratch(),
		led:      map[int][]int{},
		produces: map[[2]int]bool{},
		pending:  map[pendKey][]transport.Frame{},
	}
	for lvl := 1; lvl <= tree.Bottom(); lvl++ {
		for ci, c := range tree.Clusters[lvl] {
			if c.Leader == int(cfg.ID) {
				e.led[lvl] = append(e.led[lvl], ci)
			}
		}
	}
	sizes := step.ModelSizes(ccfg.Hidden)
	if e.sh == nil {
		e.sh = &shared{init: nn.InitParamsInto(nil, rng.New(cfg.Seed).Derive("init"), sizes...)}
	}
	e.global = e.sh.init
	e.dim = len(e.global)
	e.pool = step.Store.Pool(sizes)
	if e.isRoot || len(e.led) > 0 {
		obs := step.NewObserver(ccfg.Telemetry, "node", len(tree.Clusters), ccfg.OnFilter, nil)
		e.st = step.NewStepper(obs, max(ccfg.Workers, 1), e.pool, true)
	}
	e.jsonEnc = json.NewEncoder(&e.jsonBuf)
	// One queue for all kinds: the engine is single-threaded, and the
	// pending buffer re-sorts out-of-phase frames. The capacity only paces
	// the wire, it cannot deadlock it: the engine drains the queue whenever
	// it waits on a peer (collect, awaitGlobal), and the only other place it
	// blocks is a Send into an outbound queue of QueueCap frames, which a
	// link carrying a few frames per round never fills. A full queue so
	// holds its publisher only until the engine's next wait. Twice this
	// node's per-round inbound bound lets a whole round, fault duplicates
	// included, land without that pause.
	e.q = cfg.Endpoint.Bus().Subscribe(2*e.inboundPerRound(), KindUpdate, KindPartial, KindGlobal, KindProposal, KindBallot)
	e.busDone = cfg.Endpoint.Bus().Done()
	return e, nil
}

// inboundPerRound bounds the frames this node's roles are sent in one round:
// the disseminated global (everyone but the root, which forms it), an update
// or partial from every other member of each cluster it leads, an ABA
// proposal per level-1 cluster it leads and, at the root, a partial and a
// ballot per level-1 cluster.
func (e *Engine) inboundPerRound() int {
	if e.isRoot {
		return 2 * len(e.tree.Clusters[1])
	}
	n := 1 + len(e.led[1])
	for lvl, cis := range e.led {
		for _, ci := range cis {
			n += e.tree.Clusters[lvl][ci].Size() - 1
		}
	}
	return n
}

// roundVec borrows a dim-sized vector, contents unspecified, that is the
// caller's until the next giveBack.
func (e *Engine) roundVec() tensor.Vector {
	v := step.Store.Take(e.dim)
	e.lent = append(e.lent, v)
	return v
}

// giveBack returns every vector roundVec lent to the store.
func (e *Engine) giveBack() {
	step.Store.Put(e.lent...)
	e.lent = e.lent[:0]
}

// logf emits a progress line when a logger is configured.
func (e *Engine) logf(format string, args ...any) {
	if e.cfg.Logf != nil {
		e.cfg.Logf(format, args...)
	}
}

// trains reports whether device id computes an update this round: not
// cohort-skipped/churned by the core draw, and not down in the fault plan.
// Every process evaluates this identically — the no-signaling invariant.
func (e *Engine) trains(id, round int, skip map[int]bool) bool {
	return !skip[id] && !e.cfg.Plan.DeviceDown(id, round)
}

// clusterProduces reports whether cluster (lvl, ci) contributes a partial
// this round under the deterministic availability draws: a bottom cluster
// produces when any member trains, an upper one when any child produces.
// Memoized per round.
func (e *Engine) clusterProduces(lvl, ci, round int, skip map[int]bool) bool {
	key := [2]int{lvl, ci}
	if v, ok := e.produces[key]; ok {
		return v
	}
	c := e.tree.Clusters[lvl][ci]
	out := false
	if lvl == e.tree.Bottom() {
		for _, m := range c.Members {
			if e.trains(m, round, skip) {
				out = true
				break
			}
		}
	} else {
		for mi := range c.Members {
			if e.clusterProduces(lvl+1, e.tree.ChildIndex(c, mi), round, skip) {
				out = true
				break
			}
		}
	}
	e.produces[key] = out
	return out
}
