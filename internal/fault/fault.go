// Package fault describes failure scenarios for ABD-HFL runs as composable,
// seeded, deterministic fault plans. A Plan captures the failure modes the
// paper's partial-synchrony assumption ("arbitrary, finite, unbounded"
// delivery) and Assumptions 2-3 (crash and churn within quorum bounds)
// admit, plus the adversarial ones the quorum-φ and timeout machinery
// exists to survive:
//
//   - transport faults: per-message drop, duplication, and reordering-by-
//     extra-delay (wired into internal/simnet as a FaultModel, and into
//     internal/transport as per-frame fates, FrameFate);
//   - crash (fail-stop) devices: a device stops training and uploading from
//     a chosen round onwards, forever; a crashed device that leads a
//     cluster keeps collecting and relaying (a dead leader is the separate
//     leader-failure mode below);
//   - omission-Byzantine devices: a device keeps receiving and training but
//     silently withholds a fraction of its uploads;
//   - transient churn: a device is down for a round interval and rejoins;
//   - leader failure: the leader of a chosen cluster stops responding from
//     a chosen round — the structurally-important-node failure that
//     topology-resilience studies single out.
//
// All decisions are pure functions of (Plan, Seed, identifiers): the same
// plan crashes, churns and silences the same devices in the discrete-event
// simulator and in the node engine, and loses the same frames on every
// node backend (loopback, TCP, or across processes). Every method is safe
// on a nil *Plan (no faults), so engines query unconditionally.
package fault

import (
	"fmt"
	"sort"
	"strings"

	"abdhfl/internal/rng"
	"abdhfl/internal/simnet"
)

// Churn takes a device offline for the half-open global-round interval
// [FromRound, ToRound); the device rejoins at ToRound.
type Churn struct {
	Device             int
	FromRound, ToRound int
}

// LeaderFailure makes the leader of cluster (Level, Cluster) stop
// responding — collecting, aggregating, and forwarding — for every round
// >= FromRound. Its whole subtree starves; the level above must survive via
// quorum and timeouts.
type LeaderFailure struct {
	Level, Cluster, FromRound int
}

// Plan is one failure scenario. The zero value (and a nil *Plan) injects
// nothing; fields compose freely and Merge combines plans.
type Plan struct {
	// Seed drives every probabilistic fault decision. Two plans with the
	// same fields and seed inject identical fault patterns.
	Seed uint64

	// Transport faults, applied per message.
	Drop      float64 // probability a message is lost
	Duplicate float64 // probability one extra copy is delivered
	// Reorder is the probability a message is delayed by an extra
	// U[0, ReorderDelay) virtual ms, letting later traffic overtake it.
	Reorder      float64
	ReorderDelay float64

	// CrashFromRound maps a device id to the first round it is crashed
	// (fail-stop): it never trains or uploads from that round on. Round 0
	// means the device never starts.
	CrashFromRound map[int]int

	// OmitProb maps a device id to the probability it silently withholds a
	// given round's upload (omission-Byzantine: it stays responsive
	// otherwise).
	OmitProb map[int]float64

	// ChurnIntervals lists transient downtimes.
	ChurnIntervals []Churn

	// LeaderFailures lists failed cluster leaders.
	LeaderFailures []LeaderFailure
}

// Merge returns the union of the given plans: probabilities combine as
// independent events (1 - Π(1-p)), crash rounds take the earliest, churn
// and leader failures concatenate. The first non-zero seed wins.
func Merge(plans ...*Plan) *Plan {
	out := &Plan{}
	orProb := func(a, b float64) float64 { return 1 - (1-a)*(1-b) }
	for _, p := range plans {
		if p == nil {
			continue
		}
		if out.Seed == 0 {
			out.Seed = p.Seed
		}
		out.Drop = orProb(out.Drop, p.Drop)
		out.Duplicate = orProb(out.Duplicate, p.Duplicate)
		out.Reorder = orProb(out.Reorder, p.Reorder)
		if p.ReorderDelay > out.ReorderDelay {
			out.ReorderDelay = p.ReorderDelay
		}
		for id, r := range p.CrashFromRound {
			if cur, ok := out.CrashFromRound[id]; !ok || r < cur {
				if out.CrashFromRound == nil {
					out.CrashFromRound = map[int]int{}
				}
				out.CrashFromRound[id] = r
			}
		}
		for id, pr := range p.OmitProb {
			if out.OmitProb == nil {
				out.OmitProb = map[int]float64{}
			}
			out.OmitProb[id] = orProb(out.OmitProb[id], pr)
		}
		out.ChurnIntervals = append(out.ChurnIntervals, p.ChurnIntervals...)
		out.LeaderFailures = append(out.LeaderFailures, p.LeaderFailures...)
	}
	return out
}

// Enabled reports whether the plan injects any fault at all.
func (p *Plan) Enabled() bool {
	if p == nil {
		return false
	}
	return p.Drop > 0 || p.Duplicate > 0 || p.Reorder > 0 ||
		len(p.CrashFromRound) > 0 || len(p.OmitProb) > 0 ||
		len(p.ChurnIntervals) > 0 || len(p.LeaderFailures) > 0
}

// Fate implements simnet.FaultModel: the per-message transport verdict,
// drawn from the simulator's dedicated fault stream.
func (p *Plan) Fate(r *rng.RNG, from, to simnet.NodeID, at simnet.Time) simnet.Fate {
	var f simnet.Fate
	if p == nil {
		return f
	}
	if p.Drop > 0 && r.Float64() < p.Drop {
		f.Drop = true
		return f
	}
	if p.Duplicate > 0 && r.Float64() < p.Duplicate {
		f.Duplicates = 1
	}
	if p.Reorder > 0 && p.ReorderDelay > 0 && r.Float64() < p.Reorder {
		f.ExtraDelay = p.ReorderDelay * r.Float64()
	}
	return f
}

// coin is the engine-agnostic deterministic Bernoulli draw: the same plan
// seed and label give the same verdict in every engine, independent of call
// order and goroutine scheduling.
func (p *Plan) coin(label string, prob float64) bool {
	if prob <= 0 {
		return false
	}
	if prob >= 1 {
		return true
	}
	return rng.New(p.Seed).Derive(label).Float64() < prob
}

// DeviceCrashed reports whether device id is fail-stopped at round.
func (p *Plan) DeviceCrashed(id, round int) bool {
	if p == nil || p.CrashFromRound == nil {
		return false
	}
	r, ok := p.CrashFromRound[id]
	return ok && round >= r
}

// DeviceOffline reports whether device id is churned out at round (crashes
// are permanent and reported separately).
func (p *Plan) DeviceOffline(id, round int) bool {
	if p == nil {
		return false
	}
	for _, c := range p.ChurnIntervals {
		if c.Device == id && round >= c.FromRound && round < c.ToRound {
			return true
		}
	}
	return false
}

// DeviceDown reports whether device id does not participate in round for
// any reason (crash or churn).
func (p *Plan) DeviceDown(id, round int) bool {
	return p.DeviceCrashed(id, round) || p.DeviceOffline(id, round)
}

// OmitUpload reports whether omission-Byzantine device id withholds its
// round upload. Deterministic per (seed, id, round).
func (p *Plan) OmitUpload(id, round int) bool {
	if p == nil || p.OmitProb == nil {
		return false
	}
	prob, ok := p.OmitProb[id]
	if !ok {
		return false
	}
	return p.coin(fmt.Sprintf("omit-%d-%d", id, round), prob)
}

// FrameFate is the transport-layer analogue of Fate for real wire frames:
// the drop/duplicate/reorder verdict for one frame, keyed by a label built
// from the frame's protocol coordinates (kind:from>to@round). Like every
// other plan decision it is a pure function of (seed, label) — the draw
// order matches Fate's (drop, then duplicate, then reorder) from a
// dedicated "frame-"+label stream — so the same plan injects the same
// fault pattern over loopback, over TCP, and across process boundaries.
// delayMS is the extra delay in wall milliseconds (0 when not reordered).
func (p *Plan) FrameFate(label string) (drop, dup bool, delayMS float64) {
	if p == nil || (p.Drop <= 0 && p.Duplicate <= 0 && p.Reorder <= 0) {
		return false, false, 0
	}
	r := rng.New(p.Seed).Derive("frame-" + label)
	if p.Drop > 0 && r.Float64() < p.Drop {
		return true, false, 0
	}
	if p.Duplicate > 0 && r.Float64() < p.Duplicate {
		dup = true
	}
	if p.Reorder > 0 && p.ReorderDelay > 0 && r.Float64() < p.Reorder {
		delayMS = p.ReorderDelay * r.Float64()
	}
	return false, dup, delayMS
}

// LeaderFailed reports whether the leader of cluster (level, cluster) is
// down for the given round.
func (p *Plan) LeaderFailed(level, cluster, round int) bool {
	if p == nil {
		return false
	}
	for _, lf := range p.LeaderFailures {
		if lf.Level == level && lf.Cluster == cluster && round >= lf.FromRound {
			return true
		}
	}
	return false
}

// CrashDevices returns a plan crashing k devices chosen uniformly (by the
// seed) from [0, n) starting at fromRound.
func CrashDevices(seed uint64, n, k, fromRound int) *Plan {
	if k > n {
		k = n
	}
	p := &Plan{Seed: seed, CrashFromRound: map[int]int{}}
	for _, id := range rng.New(seed).Derive("crash-pick").Choice(n, k) {
		p.CrashFromRound[id] = fromRound
	}
	return p
}

// ChurnDevices returns a plan taking k of n devices (chosen by the seed)
// offline for [fromRound, toRound).
func ChurnDevices(seed uint64, n, k, fromRound, toRound int) *Plan {
	if k > n {
		k = n
	}
	p := &Plan{Seed: seed}
	for _, id := range rng.New(seed).Derive("churn-pick").Choice(n, k) {
		p.ChurnIntervals = append(p.ChurnIntervals, Churn{Device: id, FromRound: fromRound, ToRound: toRound})
	}
	return p
}

// Lossy returns a pure transport-fault plan: drop and duplicate with the
// given probabilities and reordering delays up to reorderDelay virtual ms
// on a quarter of messages.
func Lossy(seed uint64, drop, dup, reorderDelay float64) *Plan {
	p := &Plan{Seed: seed, Drop: drop, Duplicate: dup}
	if reorderDelay > 0 {
		p.Reorder = 0.25
		p.ReorderDelay = reorderDelay
	}
	return p
}

// String renders a compact human-readable summary for reports.
func (p *Plan) String() string {
	if !p.Enabled() {
		return "none"
	}
	var parts []string
	if p.Drop > 0 {
		parts = append(parts, fmt.Sprintf("drop=%.0f%%", 100*p.Drop))
	}
	if p.Duplicate > 0 {
		parts = append(parts, fmt.Sprintf("dup=%.0f%%", 100*p.Duplicate))
	}
	if p.Reorder > 0 {
		parts = append(parts, fmt.Sprintf("reorder=%.0f%%<%.0fms", 100*p.Reorder, p.ReorderDelay))
	}
	if len(p.CrashFromRound) > 0 {
		ids := make([]int, 0, len(p.CrashFromRound))
		for id := range p.CrashFromRound {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		parts = append(parts, fmt.Sprintf("crash=%d devs", len(ids)))
	}
	if len(p.OmitProb) > 0 {
		parts = append(parts, fmt.Sprintf("omit=%d devs", len(p.OmitProb)))
	}
	if len(p.ChurnIntervals) > 0 {
		parts = append(parts, fmt.Sprintf("churn=%d intervals", len(p.ChurnIntervals)))
	}
	for _, lf := range p.LeaderFailures {
		parts = append(parts, fmt.Sprintf("leader(%d,%d)@r%d", lf.Level, lf.Cluster, lf.FromRound))
	}
	return strings.Join(parts, " ")
}
