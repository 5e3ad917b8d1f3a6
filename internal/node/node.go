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
	"encoding/json"
	"fmt"
	"time"

	"abdhfl"
	"abdhfl/internal/codec"
	"abdhfl/internal/core"
	"abdhfl/internal/fault"
	"abdhfl/internal/nn"
	"abdhfl/internal/step"
	"abdhfl/internal/tensor"
	"abdhfl/internal/topology"
	"abdhfl/internal/transport"
)

// Protocol frame kinds. Payloads: KindUpdate and KindGlobal carry one
// encoded model (codec bytes or raw float64s, see payload.go); KindPartial
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
	// pool lends the models devices train and the root evaluates on; the
	// engines RunCluster runs share one, nil gives the engine its own.
	pool *nn.EvalPool
}

// Engine is one node's protocol actor. Run drives all of its roles for the
// configured number of rounds on the calling goroutine.
type Engine struct {
	cfg  Config
	ccfg core.Config
	tree *topology.Tree

	id       transport.NodeID
	devices  int
	isRoot   bool
	sizes    []int
	dim      int
	workers  int
	evalEver int

	q       *transport.Queue
	busDone <-chan struct{}
	stall   time.Duration
	gwait   time.Duration
	timer   *time.Timer  // the one timer every wait arms (after)
	pool    *nn.EvalPool // Config.pool, borrowed from per training or evaluation

	// st is the cluster step's working memory, present on the root and on
	// every leader: the same step RunHFL runs, applied to the vectors this
	// node collected off the wire. It always records verdicts — they ride up
	// the tree as WireAudits whether or not anyone observes them locally.
	st  *step.Stepper
	led map[int][]int // level → indices of clusters this node leads

	cdc codec.Codec
	cs  *codec.Scratch

	// global is the round-start model every codec hop refers to; the next
	// one is formed (root) or decoded (everyone else) into spare and the
	// two swap. scratch[:scratchUsed] are the dim-sized vectors handed out
	// by roundVec since the round began — collected updates, partials,
	// aggregation results, decoded proposals — all dead by the next round,
	// which starts over at 0 and reuses them.
	global, spare tensor.Vector
	scratch       []tensor.Vector
	scratchUsed   int

	curRound int
	produces map[[2]int]bool
	pending  map[pendKey][]transport.Frame
	// held are the frames consumed this round, released to the endpoint
	// when it ends: every payload is decoded into engine memory, relayed
	// (Send copies) or answered within its round.
	held []transport.Frame

	// wire is the send scratch every encoder writes into, grown to the
	// largest payload once; jsonEnc writes partial audit lists to jsonBuf;
	// out is the frame send hands the endpoint.
	wire    []byte
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
	if cfg.Endpoint == nil {
		return nil, fmt.Errorf("node: nil endpoint")
	}
	ccfg := cfg.Materials.CoreConfig(cfg.Seed)
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
	evalEvery := ccfg.EvalEvery
	if evalEvery <= 0 {
		evalEvery = 1
	}
	e := &Engine{
		cfg:      cfg,
		ccfg:     ccfg,
		tree:     tree,
		id:       cfg.ID,
		devices:  devices,
		isRoot:   int(cfg.ID) == devices,
		sizes:    step.ModelSizes(ccfg.Hidden),
		workers:  workers,
		evalEver: evalEvery,
		stall:    stall,
		gwait:    gwait,
		timer:    time.NewTimer(time.Hour),
		pool:     cfg.pool,
		cdc:      ccfg.Codec,
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
	if e.pool == nil {
		e.pool = nn.NewEvalPool(e.sizes...)
	}
	if e.isRoot || len(e.led) > 0 {
		obs := step.NewObserver(ccfg.Telemetry, "node", len(tree.Clusters), ccfg.OnFilter, nil)
		e.st = step.NewStepper(obs, max(ccfg.Workers, 1), e.sizes, true)
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

// roundVec returns a dim-sized vector, contents unspecified, that is the
// caller's until the round ends.
func (e *Engine) roundVec() tensor.Vector {
	if e.scratchUsed == len(e.scratch) {
		e.scratch = append(e.scratch, tensor.NewVector(e.dim))
	}
	e.scratchUsed++
	return e.scratch[e.scratchUsed-1]
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
