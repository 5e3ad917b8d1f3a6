package node

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"abdhfl"
	"abdhfl/internal/telemetry"
)

// The pins below hold what a refactor of the aggregation path must not move
// for a distributed run: recorded from the tree at commit 7eae79a, they
// compare a loopback cluster's filter metrics and its OnFilter decisions
// against constants, where the conformance tests compare node with core
// inside one build.

func digest(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

// TestNodeClusterPinned digests (a) the abdhfl_filter_* and
// abdhfl_consensus_* series a cluster run leaves in Materials.Telemetry —
// the families the aggregation step owns; at the pinned commit the engines
// also registered the round engine's other families under engine="node" and
// never fed them — and (b) the OnFilter decisions, sorted, since engines
// call it from their own goroutines.
func TestNodeClusterPinned(t *testing.T) {
	for _, arm := range []struct {
		name    string
		tweak   func(*abdhfl.Scenario)
		metrics uint64
		filters uint64
	}{
		{"mkrum-voting-type1", func(s *abdhfl.Scenario) {}, 0x7b119cf0394a7638, 0x81b66d9144dad233},
		{"clip-aba-delta-int8", func(s *abdhfl.Scenario) {
			s.Aggregator, s.TopProtocol, s.Codec = "centered-clipping", "aba", "delta-int8"
		}, 0x42d8cb8a26dbf963, 0x2387c910c58ae2c2},
	} {
		t.Run(arm.name, func(t *testing.T) {
			s := testScenario("")
			s.Levels, s.ClusterSize, s.TopNodes = 3, 3, 2
			s.Attack, s.MaliciousFraction = abdhfl.AttackType1, 0.3
			arm.tweak(&s)
			m := build(t, s)
			m.Telemetry = telemetry.New()
			var mu sync.Mutex
			var decisions []string
			m.OnFilter = func(d telemetry.FilterDecision) {
				mu.Lock()
				defer mu.Unlock()
				decisions = append(decisions, fmt.Sprintf("%03d %03d %03d %s %s %v %v %v",
					d.Round, 100-d.Level, d.Cluster, d.Engine, d.Rule, d.Kept, d.Clipped, d.Discarded))
			}
			if _, err := RunCluster(ClusterOpts{Materials: m, Seed: s.Seed, StallAfter: 2 * time.Second}); err != nil {
				t.Fatal(err)
			}
			var b strings.Builder
			if err := m.Telemetry.WritePrometheus(&b); err != nil {
				t.Fatal(err)
			}
			var series []string
			for _, ln := range strings.Split(b.String(), "\n") {
				if strings.HasPrefix(ln, "abdhfl_filter_") || strings.HasPrefix(ln, "abdhfl_consensus_") {
					series = append(series, ln)
				}
			}
			sort.Strings(series)
			sort.Strings(decisions)
			gotM, gotF := digest(strings.Join(series, "\n")), digest(strings.Join(decisions, "\n"))
			if gotM != arm.metrics || gotF != arm.filters {
				t.Fatalf("pinned output moved: got %#x, %#x, want %#x, %#x", gotM, gotF, arm.metrics, arm.filters)
			}
		})
	}
}
