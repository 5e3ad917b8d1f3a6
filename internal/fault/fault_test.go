package fault

import (
	"strings"
	"testing"

	"abdhfl/internal/rng"
	"abdhfl/internal/simnet"
)

func TestNilPlanIsSafeAndInert(t *testing.T) {
	var p *Plan
	if p.Enabled() {
		t.Fatal("nil plan enabled")
	}
	r := rng.New(1)
	if f := p.Fate(r, 0, 1, 0); f.Drop || f.Duplicates != 0 || f.ExtraDelay != 0 {
		t.Fatalf("nil plan fate = %+v", f)
	}
	if p.DeviceCrashed(0, 0) || p.DeviceOffline(0, 0) || p.DeviceDown(0, 0) {
		t.Fatal("nil plan downs devices")
	}
	if p.OmitUpload(0, 0) || p.LeaderFailed(0, 0, 0) {
		t.Fatal("nil plan injects faults")
	}
	if p.String() != "none" {
		t.Fatalf("nil plan string = %q", p.String())
	}
}

func TestZeroPlanDisabled(t *testing.T) {
	if (&Plan{Seed: 7}).Enabled() {
		t.Fatal("seed alone enables a plan")
	}
	for _, p := range []*Plan{
		{Drop: 0.1},
		{Duplicate: 0.1},
		{Reorder: 0.1},
		{CrashFromRound: map[int]int{0: 0}},
		{OmitProb: map[int]float64{0: 0.5}},
		{ChurnIntervals: []Churn{{Device: 0, FromRound: 0, ToRound: 1}}},
		{LeaderFailures: []LeaderFailure{{Level: 1}}},
	} {
		if !p.Enabled() {
			t.Fatalf("plan %+v not enabled", p)
		}
	}
}

func TestCoinDeterministicAcrossInstances(t *testing.T) {
	// The engine-agnostic contract: two plan values with identical seed and
	// fields give identical verdicts, in any call order.
	a := &Plan{Seed: 42, OmitProb: map[int]float64{3: 0.5}, Drop: 0.3}
	b := &Plan{Seed: 42, OmitProb: map[int]float64{3: 0.5}, Drop: 0.3}
	for round := 0; round < 50; round++ {
		if a.OmitUpload(3, round) != b.OmitUpload(3, round) {
			t.Fatalf("omit verdicts diverge at round %d", round)
		}
	}
	// Reverse order on b: verdicts are pure functions of (seed, label).
	labels := []string{"1:0>2@0", "1:1>2@0", "2:2>6@1", "1:0>2@1"}
	got := make([]bool, len(labels))
	for i, l := range labels {
		got[i], _, _ = a.FrameFate(l)
	}
	for i := len(labels) - 1; i >= 0; i-- {
		if drop, _, _ := b.FrameFate(labels[i]); drop != got[i] {
			t.Fatalf("drop verdict for %q order-dependent", labels[i])
		}
	}
}

func TestCoinProbabilityEdges(t *testing.T) {
	p := &Plan{Seed: 1, OmitProb: map[int]float64{0: 1.0, 1: 0.0}}
	for round := 0; round < 10; round++ {
		if !p.OmitUpload(0, round) {
			t.Fatal("probability 1 did not omit")
		}
		if p.OmitUpload(1, round) {
			t.Fatal("probability 0 omitted")
		}
	}
}

func TestCrashChurnAndDown(t *testing.T) {
	p := &Plan{
		CrashFromRound: map[int]int{4: 2},
		ChurnIntervals: []Churn{{Device: 7, FromRound: 1, ToRound: 3}},
	}
	// Crash: permanent from its round.
	for round, want := range map[int]bool{0: false, 1: false, 2: true, 3: true, 99: true} {
		if p.DeviceCrashed(4, round) != want {
			t.Fatalf("crash(4, %d) != %v", round, want)
		}
	}
	// Churn: half-open interval, rejoins at ToRound.
	for round, want := range map[int]bool{0: false, 1: true, 2: true, 3: false} {
		if p.DeviceOffline(7, round) != want {
			t.Fatalf("offline(7, %d) != %v", round, want)
		}
	}
	if !p.DeviceDown(4, 5) || !p.DeviceDown(7, 2) || p.DeviceDown(0, 0) {
		t.Fatal("DeviceDown disagrees with crash/churn")
	}
}

func TestLeaderFailed(t *testing.T) {
	p := &Plan{LeaderFailures: []LeaderFailure{{Level: 2, Cluster: 1, FromRound: 3}}}
	if p.LeaderFailed(2, 1, 2) {
		t.Fatal("failed before FromRound")
	}
	if !p.LeaderFailed(2, 1, 3) || !p.LeaderFailed(2, 1, 10) {
		t.Fatal("not failed from FromRound on")
	}
	if p.LeaderFailed(2, 0, 5) || p.LeaderFailed(1, 1, 5) {
		t.Fatal("wrong cluster/level failed")
	}
}

func TestMergeSemantics(t *testing.T) {
	a := &Plan{Seed: 5, Drop: 0.5, CrashFromRound: map[int]int{1: 4}, OmitProb: map[int]float64{2: 0.5}}
	b := &Plan{Seed: 9, Drop: 0.5, CrashFromRound: map[int]int{1: 2, 3: 1},
		ChurnIntervals: []Churn{{Device: 0, FromRound: 0, ToRound: 1}},
		LeaderFailures: []LeaderFailure{{Level: 1}}}
	m := Merge(a, nil, b)
	if m.Seed != 5 {
		t.Fatalf("seed = %d, want first non-zero (5)", m.Seed)
	}
	// Independent-event union: 1 - 0.5*0.5.
	if m.Drop != 0.75 {
		t.Fatalf("drop = %v, want 0.75", m.Drop)
	}
	if m.CrashFromRound[1] != 2 {
		t.Fatalf("crash round = %d, want earliest (2)", m.CrashFromRound[1])
	}
	if m.CrashFromRound[3] != 1 {
		t.Fatal("crash from second plan lost")
	}
	if m.OmitProb[2] != 0.5 {
		t.Fatal("omit prob lost")
	}
	if len(m.ChurnIntervals) != 1 || len(m.LeaderFailures) != 1 {
		t.Fatal("churn/leader lists not concatenated")
	}
	// Merging mutated neither input.
	if a.Drop != 0.5 || b.CrashFromRound[1] != 2 {
		t.Fatal("inputs mutated")
	}
}

func TestFateDistribution(t *testing.T) {
	p := &Plan{Drop: 0.3, Duplicate: 0.2, Reorder: 0.5, ReorderDelay: 10}
	r := rng.New(77)
	drops, dups, delayed := 0, 0, 0
	const n = 10000
	for i := 0; i < n; i++ {
		f := p.Fate(r, simnet.NodeID(i%8), simnet.NodeID(i%3), simnet.Time(i))
		if f.Drop {
			drops++
			if f.Duplicates != 0 || f.ExtraDelay != 0 {
				t.Fatal("dropped message also duplicated/delayed")
			}
			continue
		}
		if f.Duplicates > 0 {
			dups++
		}
		if f.ExtraDelay > 0 {
			delayed++
			if f.ExtraDelay >= p.ReorderDelay {
				t.Fatalf("extra delay %v >= bound %v", f.ExtraDelay, p.ReorderDelay)
			}
		}
	}
	if drops < n/4 || drops > n/2 {
		t.Fatalf("drops = %d of %d at p=0.3", drops, n)
	}
	if dups == 0 || delayed == 0 {
		t.Fatal("no duplicates or reorders drawn")
	}
}

func TestHelperConstructors(t *testing.T) {
	c := CrashDevices(11, 8, 3, 2)
	if len(c.CrashFromRound) != 3 {
		t.Fatalf("crashed %d devices, want 3", len(c.CrashFromRound))
	}
	for id, r := range c.CrashFromRound {
		if id < 0 || id >= 8 || r != 2 {
			t.Fatalf("crash entry (%d, %d) out of spec", id, r)
		}
	}
	if got := CrashDevices(11, 8, 3, 2); len(got.CrashFromRound) != 3 {
		t.Fatal("crash pick not deterministic in size")
	}
	if len(CrashDevices(1, 2, 5, 0).CrashFromRound) != 2 {
		t.Fatal("k > n not clamped")
	}

	ch := ChurnDevices(11, 8, 2, 1, 4)
	if len(ch.ChurnIntervals) != 2 {
		t.Fatalf("churned %d devices, want 2", len(ch.ChurnIntervals))
	}
	for _, iv := range ch.ChurnIntervals {
		if iv.FromRound != 1 || iv.ToRound != 4 {
			t.Fatalf("churn interval %+v out of spec", iv)
		}
	}

	l := Lossy(11, 0.1, 0.05, 20)
	if l.Drop != 0.1 || l.Duplicate != 0.05 || l.Reorder == 0 || l.ReorderDelay != 20 {
		t.Fatalf("lossy plan %+v out of spec", l)
	}
	if p := Lossy(11, 0.1, 0, 0); p.Reorder != 0 {
		t.Fatal("zero reorderDelay still reorders")
	}
}

func TestString(t *testing.T) {
	p := Merge(
		Lossy(1, 0.1, 0.05, 20),
		CrashDevices(1, 8, 2, 1),
		&Plan{LeaderFailures: []LeaderFailure{{Level: 1, Cluster: 0, FromRound: 2}}},
	)
	s := p.String()
	for _, want := range []string{"drop=10%", "dup=5%", "reorder=", "crash=2 devs", "leader(1,0)@r2"} {
		if !strings.Contains(s, want) {
			t.Fatalf("String() = %q missing %q", s, want)
		}
	}
}
