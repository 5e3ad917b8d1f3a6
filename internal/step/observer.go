package step

import (
	"fmt"
	"sync"

	"abdhfl/internal/consensus"
	"abdhfl/internal/telemetry"
	"abdhfl/internal/trace"
)

// Observer is where every engine's steps report: it turns a verdict into the
// per-level abdhfl_filter_* counters and the telemetry.FilterDecision
// callback, a CBA's stats into the abdhfl_consensus_* metrics, and a failed
// step into abdhfl_step_errors_total plus the first error, which the
// drop-the-round engines surface in their Result. All of it is labelled with
// the engine's name. Recording costs a few atomic adds and allocates
// nothing; a nil *Observer observes nothing, and one Observer may serve
// concurrent steppers.
type Observer struct {
	engine   string
	onFilter func(telemetry.FilterDecision)
	verdicts bool

	// kept/clipped/discarded/errors are indexed by tree level (0 = top).
	kept, clipped, discarded, errors []*telemetry.Counter
	excluded                         *telemetry.Counter
	votes                            *telemetry.Histogram

	mu  sync.Mutex
	err error
}

// NewObserver registers the step's metric families in reg under the engine
// label, with per-level series for levels [0, levels). reg, onFilter and tr
// may each be nil; steppers record verdicts when any of them is set (a
// tracer's spans carry kept/filtered counts, which only a recorded verdict
// has — recording observes, never changes, what a rule computes).
func NewObserver(reg *telemetry.Registry, engine string, levels int, onFilter func(telemetry.FilterDecision), tr *trace.Tracer) *Observer {
	o := &Observer{engine: engine, onFilter: onFilter, verdicts: reg != nil || onFilter != nil || tr != nil}
	if reg == nil {
		return o
	}
	o.excluded = reg.Counter(fmt.Sprintf(`abdhfl_consensus_excluded_total{engine=%q}`, engine))
	o.votes = reg.Histogram(fmt.Sprintf(`abdhfl_consensus_votes{engine=%q}`, engine), telemetry.LinearBuckets(0, 1, 17))
	for lvl := 0; lvl < levels; lvl++ {
		suffix := fmt.Sprintf(`{engine=%q,level="%d"}`, engine, lvl)
		o.kept = append(o.kept, reg.Counter("abdhfl_filter_kept_total"+suffix))
		o.clipped = append(o.clipped, reg.Counter("abdhfl_filter_clipped_total"+suffix))
		o.discarded = append(o.discarded, reg.Counter("abdhfl_filter_discarded_total"+suffix))
		o.errors = append(o.errors, reg.Counter("abdhfl_step_errors_total"+suffix))
	}
	return o
}

func (o *Observer) wantsVerdicts() bool { return o != nil && o.verdicts }

// publish feeds one successful step's verdict to the level's counters and
// the callback. Levels beyond the registered range are dropped, which cannot
// happen for tree-derived levels.
func (o *Observer) publish(level, cluster, round int, v *Verdict) {
	if o == nil || !o.verdicts {
		return
	}
	if level < len(o.kept) {
		o.kept[level].Add(int64(len(v.Kept)))
		o.clipped[level].Add(int64(len(v.Clipped)))
		o.discarded[level].Add(int64(len(v.Discarded)))
	}
	if o.onFilter != nil {
		o.onFilter(telemetry.FilterDecision{
			Engine:    o.engine,
			Level:     level,
			Cluster:   cluster,
			Round:     round,
			Rule:      v.Rule,
			Kept:      v.Kept,
			Clipped:   v.Clipped,
			Discarded: v.Discarded,
		})
	}
}

// consensus feeds a CBA step's exclusion count and vote tallies.
func (o *Observer) consensus(st consensus.Stats) {
	if o == nil {
		return
	}
	o.excluded.Add(int64(len(st.Excluded)))
	for _, v := range st.Votes {
		o.votes.Observe(float64(v))
	}
}

// failed counts a step that returned an error and keeps the first one.
func (o *Observer) failed(level int, err error) {
	if o == nil {
		return
	}
	if level < len(o.errors) {
		o.errors[level].Inc()
	}
	o.mu.Lock()
	if o.err == nil {
		o.err = err
	}
	o.mu.Unlock()
}

// Err returns the first error any step reporting here returned, or nil. The
// engines whose policy is to drop a failed cluster's round and carry on put
// it in their Result, so a cluster that went quiet can be told from one that
// was starved.
func (o *Observer) Err() error {
	if o == nil {
		return nil
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.err
}
