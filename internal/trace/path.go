// Per-round critical-path analysis. Parent links point from producer spans
// to the span that consumed their output, so the children of a round's
// "global" span are the partial-model msg hops that fed it, a partial msg's
// child is the aggregate span that produced it, an aggregate's children are
// its input hops, and an uplink hop's child is the device train span — the
// round's contribution DAG. The critical path walks that DAG from the
// global span downwards, always following the child that finished last: the
// chain of work the round actually waited on.
package trace

import (
	"fmt"
	"io"
	"sort"
)

// PathStep is one span on a critical path together with its exclusive
// contribution: the time between its chosen input finishing (or its own
// start, at the leaf) and this span finishing.
type PathStep struct {
	Span Span
	Own  float64
}

// RoundPath is the critical path of one round, leaf to global.
type RoundPath struct {
	Round int
	// Total is global-span end minus leaf start: the round's end-to-end
	// critical latency.
	Total float64
	// Steps run from the global span down to the leaf.
	Steps []PathStep
	// TrainMS, LinkMS, AggregateMS, GlobalMS decompose Total by span kind
	// (train work, message transit, per-level aggregation incl. waiting
	// out the collect window, global formation).
	TrainMS, LinkMS, AggregateMS, GlobalMS float64
	// SlowestLink is the msg span with the largest exclusive contribution
	// on the path (zero Span when the path has no message hops).
	SlowestLink Span
	// Straggler is the device id of the train leaf, -1 if the walk ended
	// on a non-train span.
	Straggler int
}

// CriticalPaths walks the span DAG and returns one RoundPath per "global"
// span, ordered by round. Spans may arrive in any order; ties on child
// finish times resolve by the deterministic total order, so the result is
// invariant under worker and shard counts.
func CriticalPaths(spans []Span) []RoundPath {
	ordered := make([]Span, len(spans))
	copy(ordered, spans)
	sort.Slice(ordered, func(i, j int) bool { return spanLess(&ordered[i], &ordered[j]) })

	children := make(map[uint64][]int, len(ordered))
	var globals []int
	for i := range ordered {
		s := &ordered[i]
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
		if s.Name == "global" {
			globals = append(globals, i)
		}
	}

	var paths []RoundPath
	for _, gi := range globals {
		g := &ordered[gi]
		p := RoundPath{Round: g.Round, Straggler: -1}
		seen := map[uint64]bool{}
		cur := gi
		for {
			s := ordered[cur]
			if seen[s.ID] {
				break // malformed cycle; stop rather than loop forever
			}
			seen[s.ID] = true
			// Slowest child: max End, first in total order on ties. A
			// child that (impossibly, or via a logical clock) ends after
			// its consumer still counts — the walk follows structure.
			next, found := -1, false
			for _, ci := range children[s.ID] {
				if !found || ordered[ci].End > ordered[next].End {
					next, found = ci, true
				}
			}
			own := s.End - s.Start
			if found {
				if in := ordered[next].End; in > s.Start && in < s.End {
					own = s.End - in
				}
			}
			p.Steps = append(p.Steps, PathStep{Span: s, Own: own})
			switch s.Name {
			case "train":
				p.TrainMS += own
			case "msg":
				p.LinkMS += own
			case "aggregate":
				p.AggregateMS += own
			case "global":
				p.GlobalMS += own
			}
			if !found {
				if s.Name == "train" {
					p.Straggler = s.Device
				}
				p.Total = g.End - s.Start
				break
			}
			cur = next
		}
		// Slowest link: msg step with the largest exclusive contribution.
		best := -1.0
		for _, st := range p.Steps {
			if st.Span.Name == "msg" && st.Own > best {
				best, p.SlowestLink = st.Own, st.Span
			}
		}
		paths = append(paths, p)
	}
	sort.SliceStable(paths, func(i, j int) bool { return paths[i].Round < paths[j].Round })
	return paths
}

// RenderPaths formats critical paths as the fixed-width report committed in
// results_trace_paths.txt: one row per round with the per-phase breakdown,
// the slowest link, and the straggler device.
func RenderPaths(w io.Writer, paths []RoundPath) {
	fmt.Fprintf(w, "%-6s %10s %10s %10s %10s %10s  %-18s %s\n",
		"round", "total_ms", "train_ms", "link_ms", "agg_ms", "global_ms", "slowest_link", "straggler")
	for _, p := range paths {
		link := "-"
		if p.SlowestLink.ID != 0 {
			link = fmt.Sprintf("%d->%d (%.2fms)", p.SlowestLink.From, p.SlowestLink.To, p.SlowestLink.End-p.SlowestLink.Start)
		}
		straggler := "-"
		if p.Straggler >= 0 {
			straggler = fmt.Sprintf("dev %d", p.Straggler)
		}
		fmt.Fprintf(w, "%-6d %10.2f %10.2f %10.2f %10.2f %10.2f  %-18s %s\n",
			p.Round, p.Total, p.TrainMS, p.LinkMS, p.AggregateMS, p.GlobalMS, link, straggler)
	}
}
