package consensus

import (
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"

	"abdhfl/internal/rng"
	"abdhfl/internal/tensor"
)

// adversarialSchedules is the delivery-model ladder the property suite
// cycles through: instant delivery, the default mild asynchrony, a hostile
// net with heavy tails and loss on every fifth message, and an extreme
// jitter regime where resends dominate.
func adversarialSchedules() []Schedule {
	return []Schedule{
		{},
		DefaultSchedule(),
		{BaseMS: 1, JitterMS: 10, HeavyProb: 0.3, HeavyMS: 100, DropProb: 0.2, ResendMS: 50, DupProb: 0.2},
		{BaseMS: 0.1, JitterMS: 50, HeavyProb: 0.5, HeavyMS: 200, DropProb: 0.1, ResendMS: 30, DupProb: 0.3},
	}
}

// TestBinaryABAProperties is the adversarial-schedule conformance suite: for
// each membership size it sweeps 80 seeds, each drawing a schedule from the
// ladder, a Byzantine/silent fault mix within the budget f < n/3, and
// arbitrary input bits, then checks the three ABA properties:
//
//	agreement:   every honest member decides the same bit;
//	validity:    with unanimous honest inputs, the decision is that input;
//	termination: every honest member decides within the round bound
//	             (probabilistic in theory; deterministic per seed here, so a
//	             failure is a reproducible bug, not a flake).
//
// The subtests run in parallel so `go test -race` exercises concurrent
// instances of the simulator.
func TestBinaryABAProperties(t *testing.T) {
	for _, n := range []int{4, 7, 10} {
		n := n
		t.Run(fmt.Sprintf("n%d", n), func(t *testing.T) {
			t.Parallel()
			for seed := uint64(0); seed < 80; seed++ {
				c := newPropertyCase(n, seed)
				out, err := c.run(nil)
				if err != nil {
					t.Fatalf("seed %d (byz %v silent %v inputs %v): %v", seed, c.byz, c.silent, c.inputs, err)
				}
				decision := -1
				for i, d := range out.Decisions {
					if c.byz[i] || c.silent[i] {
						if d != -1 {
							t.Fatalf("seed %d: faulty member %d reported decision %d", seed, i, d)
						}
						continue
					}
					if d < 0 {
						t.Fatalf("seed %d: honest member %d did not decide", seed, i)
					}
					if decision < 0 {
						decision = d
					} else if d != decision {
						t.Fatalf("seed %d: agreement violated: decisions %v", seed, out.Decisions)
					}
				}
				if c.unanimous >= 0 && decision != c.unanimous {
					t.Fatalf("seed %d: validity violated: unanimous honest input %d, decided %d", seed, c.unanimous, decision)
				}
				if out.Rounds < 1 || out.Rounds > 64 {
					t.Fatalf("seed %d: decided in round %d", seed, out.Rounds)
				}
				if n > 1 && out.Messages == 0 {
					t.Fatalf("seed %d: no messages on the wire", seed)
				}
			}
		})
	}
}

// propertyCase is one run of the property suite: a schedule from the
// ladder, a Byzantine/silent fault mix within the budget f < n/3, and
// arbitrary input bits, all drawn from the seed.
type propertyCase struct {
	r           *rng.RNG
	inputs      []int
	byz, silent map[int]bool
	sched       Schedule
	unanimous   int // the unanimous honest input, or -1
}

func newPropertyCase(n int, seed uint64) propertyCase {
	schedules := adversarialSchedules()
	f := (n - 1) / 3
	r := rng.New(1 + seed + uint64(n)<<32)
	byzCount := r.Intn(f + 1)
	silentCount := r.Intn(f - byzCount + 1)
	perm := r.Perm(n)
	c := propertyCase{r: r, byz: map[int]bool{}, silent: map[int]bool{}, unanimous: -1}
	for _, m := range perm[:byzCount] {
		c.byz[m] = true
	}
	for _, m := range perm[byzCount : byzCount+silentCount] {
		c.silent[m] = true
	}
	c.inputs = make([]int, n)
	seenInput := false
	for i := range c.inputs {
		c.inputs[i] = r.Intn(2)
		if c.byz[i] || c.silent[i] {
			continue
		}
		if !seenInput {
			c.unanimous, seenInput = c.inputs[i], true
		} else if c.inputs[i] != c.unanimous {
			c.unanimous = -1
		}
	}
	c.sched = schedules[int(seed)%len(schedules)]
	return c
}

func (c propertyCase) run(trace func(string)) (BinaryOutcome, error) {
	return RunBinaryABA(c.r.Derive("run"), c.inputs, c.byz, c.silent, &c.sched, 64, trace)
}

// TestABASimReuseMatchesFresh: an instance run on a simulator that already
// ran one, as AgreeInto runs its proposals, replays every property case —
// fault mixes, divergent inputs, every schedule — exactly as a fresh one:
// the same transcript and the same outcome. A field run forgets to reset
// shows here.
func TestABASimReuseMatchesFresh(t *testing.T) {
	for _, n := range []int{4, 7, 10} {
		for seed := uint64(0); seed < 40; seed++ {
			c := newPropertyCase(n, seed)
			var want, got strings.Builder
			fresh, err := c.run(func(ev string) { want.WriteString(ev + "\n") })
			if err != nil {
				t.Fatalf("n%d seed %d: %v", n, seed, err)
			}
			r := c.r.Derive("run")
			s, err := newABASim(n, c.byz, c.silent, c.sched, 64, r.Derive("common-coin"))
			if err != nil {
				t.Fatal(err)
			}
			flipped := make([]int, n)
			for i, b := range c.inputs {
				flipped[i] = 1 - b
			}
			s.run(r.Derive("other-schedule"), r.Derive("other-adversary"), 1, flipped, nil) // dirties every slab
			out, err := s.run(r.Derive("aba-schedule"), r.Derive("aba-adversary"), 0, c.inputs,
				func(ev string) { got.WriteString(ev + "\n") })
			if err != nil {
				t.Fatalf("n%d seed %d reused: %v", n, seed, err)
			}
			if got.String() != want.String() || fmt.Sprint(out) != fmt.Sprint(fresh) {
				t.Fatalf("n%d seed %d: the reused simulator diverged: %+v, fresh %+v", n, seed, out, fresh)
			}
		}
	}
}

const abaGolden = "testdata/aba_transcripts.txt"

// TestBinaryABATranscriptGolden pins ABA's event order: every trace line of
// the property suite's 240 runs with one outcome line per run, then
// ABA.Agree's transcript and Stats at TestABAWorkerInvariance's setup, held
// byte for byte against testdata/aba_transcripts.txt. The other ABA tests
// compare reruns with each other, so only this one fails when a change to
// the delivery order (equal-time ties, a latency draw moved) changes every
// rerun alike. ABDHFL_REGEN=1 rewrites the file.
func TestBinaryABATranscriptGolden(t *testing.T) {
	var b strings.Builder
	line := func(ev string) { b.WriteString(ev); b.WriteByte('\n') }
	for _, n := range []int{4, 7, 10} {
		for seed := uint64(0); seed < 80; seed++ {
			out, err := newPropertyCase(n, seed).run(line)
			if err != nil {
				t.Fatalf("n%d seed %d: %v", n, seed, err)
			}
			fmt.Fprintf(&b, "outcome n%d seed%d decisions %v rounds %d messages %d virtual %v\n",
				n, seed, out.Decisions, out.Rounds, out.Messages, out.VirtualMS)
		}
	}
	proposals, good := goodBadProposals(5, 2, 8)
	ctx := &Context{Members: 7, Validator: accuracyLike(good), Rand: rng.New(101), Workers: 1}
	_, st, err := ABA{Trace: line}.Agree(ctx, proposals)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&b, "agree stats %+v\n", st)
	got := b.String()

	if os.Getenv("ABDHFL_REGEN") == "1" {
		if err := os.WriteFile(abaGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("regenerated %s (%d bytes)", abaGolden, len(got))
		return
	}
	raw, err := os.ReadFile(abaGolden)
	if err != nil {
		t.Fatalf("golden missing (run with ABDHFL_REGEN=1): %v", err)
	}
	want := string(raw)
	if got == want {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("%s line %d differs:\n got  %q\n want %q", abaGolden, i+1, g, w)
		}
	}
}

func TestBinaryABARejectsTooManyFaulty(t *testing.T) {
	inputs := []int{1, 1, 0, 1}
	if _, err := RunBinaryABA(rng.New(1), inputs, map[int]bool{0: true}, map[int]bool{1: true}, nil, 16, nil); err == nil {
		t.Fatal("accepted 2 faulty members with f=1 (n=4)")
	}
	if _, err := RunBinaryABA(rng.New(1), nil, nil, nil, nil, 16, nil); err == nil {
		t.Fatal("accepted zero members")
	}
	if _, err := RunBinaryABA(rng.New(1), make([]int, 1<<abaMemberBits+1), nil, nil, nil, 16, nil); err == nil {
		t.Fatal("accepted more members than a message can name")
	}
	if _, err := RunBinaryABA(rng.New(1), inputs, nil, nil, &Schedule{BaseMS: 1, JitterMS: -2}, 16, nil); err == nil {
		t.Fatal("accepted a schedule with a negative delay")
	}
}

func TestBinaryABADeterministicTranscript(t *testing.T) {
	inputs := []int{1, 0, 1, 1, 0, 1, 1}
	sched := adversarialSchedules()[2]
	run := func() (BinaryOutcome, string) {
		var lines []string
		out, err := RunBinaryABA(rng.New(99), inputs, map[int]bool{2: true}, map[int]bool{5: true},
			&sched, 64, func(ev string) { lines = append(lines, ev) })
		if err != nil {
			t.Fatal(err)
		}
		return out, strings.Join(lines, "\n")
	}
	o1, t1 := run()
	o2, t2 := run()
	if t1 != t2 {
		t.Fatal("transcripts differ across identical reruns")
	}
	if o1.Messages != o2.Messages || o1.Rounds != o2.Rounds || o1.VirtualMS != o2.VirtualMS {
		t.Fatalf("outcomes differ: %+v vs %+v", o1, o2)
	}
}

// TestABAMatchesVotingZeroFault pins the equivalence the chaostest sweeps
// rely on: with every ballot present, ABA's ballot tally equals Voting's, so
// validity forces the identical kept set and the identical output bytes.
func TestABAMatchesVotingZeroFault(t *testing.T) {
	for seed := uint64(1); seed <= 10; seed++ {
		proposals, good := goodBadProposals(5, 2, 6)
		vctx := &Context{Members: 7, Validator: accuracyLike(good), Rand: rng.New(seed)}
		vout, vst, err := Voting{}.Agree(vctx, proposals)
		if err != nil {
			t.Fatal(err)
		}
		actx := &Context{Members: 7, Validator: accuracyLike(good), Rand: rng.New(seed)}
		aout, ast, err := ABA{}.Agree(actx, proposals)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(vst.Excluded) != fmt.Sprint(ast.Excluded) {
			t.Fatalf("seed %d: excluded differ: voting %v, aba %v", seed, vst.Excluded, ast.Excluded)
		}
		if d := tensor.Distance(vout, aout); d != 0 {
			t.Fatalf("seed %d: outputs differ by %v", seed, d)
		}
		if ast.CoinRounds < 1 || ast.Rounds != 2+ast.CoinRounds {
			t.Fatalf("seed %d: stats %+v", seed, ast)
		}
	}
}

// TestABAWorkerInvariance checks the repo-wide determinism contract on the
// randomized protocol: output bytes, stats, and the full event transcript
// are identical for every Workers setting.
func TestABAWorkerInvariance(t *testing.T) {
	proposals, good := goodBadProposals(5, 2, 8)
	run := func(workers int) (tensor.Vector, Stats, string) {
		var lines []string
		ctx := &Context{Members: 7, Validator: accuracyLike(good), Rand: rng.New(101), Workers: workers}
		out, st, err := ABA{Trace: func(ev string) { lines = append(lines, ev) }}.Agree(ctx, proposals)
		if err != nil {
			t.Fatal(err)
		}
		return out, st, strings.Join(lines, "\n")
	}
	baseOut, baseSt, baseTr := run(1)
	for _, w := range []int{2, 4, 8} {
		out, st, tr := run(w)
		if d := tensor.Distance(baseOut, out); d != 0 {
			t.Fatalf("workers %d: output differs by %v", w, d)
		}
		if fmt.Sprint(st) != fmt.Sprint(baseSt) {
			t.Fatalf("workers %d: stats differ:\n%+v\n%+v", w, baseSt, st)
		}
		if tr != baseTr {
			t.Fatalf("workers %d: transcript differs", w)
		}
	}
}

// TestABABallotInjection covers the wire-collected ballot path the node
// engine uses: injected full rows reproduce the local computation exactly,
// nil rows within the fault budget become silent members, and rows missing
// beyond the budget fall back to local recomputation (which needs the
// validator).
func TestABABallotInjection(t *testing.T) {
	proposals, good := goodBadProposals(5, 2, 6)
	val := accuracyLike(good)
	local := func() ([]int, tensor.Vector) {
		ctx := &Context{Members: 7, Validator: val, Rand: rng.New(7)}
		out, st, err := ABA{}.Agree(ctx, proposals)
		if err != nil {
			t.Fatal(err)
		}
		return st.Excluded, out
	}
	lexc, lout := local()

	fullRows := func() *BallotSet {
		set := &BallotSet{Rows: make([][]bool, 7)}
		bctx := &Context{Members: 7, Validator: val}
		for m := 0; m < 7; m++ {
			set.Rows[m] = Ballot(bctx, m, 0, proposals)
		}
		return set
	}

	t.Run("full-rows-match-local", func(t *testing.T) {
		ctx := &Context{Members: 7, Rand: rng.New(7), Ballots: fullRows()}
		out, st, err := ABA{}.Agree(ctx, proposals) // no validator needed: every row injected
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(st.Excluded) != fmt.Sprint(lexc) {
			t.Fatalf("excluded differ: local %v, injected %v", lexc, st.Excluded)
		}
		if d := tensor.Distance(lout, out); d != 0 {
			t.Fatalf("outputs differ by %v", d)
		}
	})

	t.Run("nil-rows-within-budget", func(t *testing.T) {
		set := fullRows()
		set.Rows[1], set.Rows[4] = nil, nil // f = 2 silent members
		ctx := &Context{Members: 7, Rand: rng.New(7), Ballots: set}
		_, st, err := ABA{}.Agree(ctx, proposals)
		if err != nil {
			t.Fatal(err)
		}
		if len(st.Excluded) == 0 {
			t.Fatal("poisoned proposals survived with two silent members")
		}
	})

	t.Run("beyond-budget-needs-validator", func(t *testing.T) {
		set := fullRows()
		for _, m := range []int{0, 1, 2, 3} {
			set.Rows[m] = nil
		}
		ctx := &Context{Members: 7, Rand: rng.New(7), Ballots: set}
		if _, _, err := (ABA{}).Agree(ctx, proposals); err == nil {
			t.Fatal("recomputed missing ballots without a validator")
		}
		ctx = &Context{Members: 7, Validator: val, Rand: rng.New(7), Ballots: set}
		if _, _, err := (ABA{}).Agree(ctx, proposals); err != nil {
			t.Fatal(err)
		}
	})
}

func TestABARequiresValidatorWithoutBallots(t *testing.T) {
	proposals, _ := goodBadProposals(4, 0, 3)
	ctx := &Context{Members: 4, Rand: rng.New(1)}
	if _, _, err := (ABA{}).Agree(ctx, proposals); err == nil {
		t.Fatal("nil validator accepted")
	}
}

func TestCommitteeForRound(t *testing.T) {
	r := rng.New(5)
	n, size := 9, 4
	dealt := map[int]int{}
	for round := 0; round < 2*n; round++ {
		dealer, members := CommitteeForRound(r, round, n, size)
		if dealer != round%n {
			t.Fatalf("round %d: dealer %d, want %d", round, dealer, round%n)
		}
		dealt[dealer]++
		if len(members) != size || members[0] != dealer {
			t.Fatalf("round %d: members %v (dealer %d)", round, members, dealer)
		}
		seen := map[int]bool{}
		for _, m := range members {
			if m < 0 || m >= n || seen[m] {
				t.Fatalf("round %d: bad committee %v", round, members)
			}
			seen[m] = true
		}
		// Pure label derivation: recomputing the round gives the same seats.
		d2, m2 := CommitteeForRound(r, round, n, size)
		if d2 != dealer || fmt.Sprint(m2) != fmt.Sprint(members) {
			t.Fatalf("round %d: rotation not deterministic: %v vs %v", round, members, m2)
		}
	}
	// Over 2n rounds the dealer seat visits every member exactly twice.
	for m := 0; m < n; m++ {
		if dealt[m] != 2 {
			t.Fatalf("member %d dealt %d times over %d rounds", m, dealt[m], 2*n)
		}
	}
	// Clamps: oversize committees truncate to n, negative rounds stay in range.
	if _, members := CommitteeForRound(r, 3, 4, 99); len(members) != 4 {
		t.Fatalf("oversize committee: %v", members)
	}
	if dealer, _ := CommitteeForRound(r, -5, 4, 2); dealer < 0 || dealer >= 4 {
		t.Fatalf("negative round dealer %d", dealer)
	}
}

func TestCommitteeForRoundRotates(t *testing.T) {
	// Different rounds draw genuinely different committees (independent
	// per-round sub-streams, not consecutive slices of one stream).
	r := rng.New(6)
	n, size := 12, 5
	distinct := map[string]bool{}
	for round := 0; round < n; round++ {
		_, members := CommitteeForRound(r, round, n, size)
		tail := append([]int(nil), members[1:]...) // drop the forced dealer seat
		sort.Ints(tail)
		distinct[fmt.Sprint(tail)] = true
	}
	if len(distinct) < n/2 {
		t.Fatalf("only %d distinct committees over %d rounds", len(distinct), n)
	}
}

func TestRotatingCommitteeAgree(t *testing.T) {
	proposals, good := goodBadProposals(5, 3, 4)
	run := func(round, workers int) []int {
		ctx := &Context{Members: 8, Validator: accuracyLike(good), Rand: rng.New(11), Round: round, Workers: workers}
		out, st, err := RotatingCommittee{}.Agree(ctx, proposals)
		if err != nil {
			t.Fatal(err)
		}
		if d := tensor.Distance(out, good); d > 1 {
			t.Fatalf("round %d: agreed model off by %v (excluded %v)", round, d, st.Excluded)
		}
		return st.Excluded
	}
	for round := 0; round < 4; round++ {
		base := run(round, 1)
		// The rotation sequence and decisions are identical for every
		// scoring fan-out.
		for _, w := range []int{0, 2, 8} {
			if got := run(round, w); fmt.Sprint(got) != fmt.Sprint(base) {
				t.Fatalf("round %d workers %d: exclusions differ: %v vs %v", round, w, base, got)
			}
		}
	}
}

func TestRotatingCommitteeRequiresValidator(t *testing.T) {
	proposals, _ := goodBadProposals(4, 0, 3)
	ctx := &Context{Members: 4, Rand: rng.New(1)}
	if _, _, err := (RotatingCommittee{}).Agree(ctx, proposals); err == nil {
		t.Fatal("nil validator accepted")
	}
}

// TestNamesRoundTrip pins the registry invariant ByName and Names share one
// table: every listed name resolves, resolves to itself, and the list stays
// sorted (EXPERIMENTS.md and the CLI flag docs quote it verbatim).
func TestNamesRoundTrip(t *testing.T) {
	names := Names()
	if !sort.StringsAreSorted(names) {
		t.Fatalf("Names() not sorted: %v", names)
	}
	want := map[string]bool{"aba": true, "rotating-committee": true, "voting": true}
	for _, n := range names {
		p, err := ByName(n)
		if err != nil {
			t.Fatalf("ByName(%q): %v", n, err)
		}
		if p.Name() != n {
			t.Fatalf("ByName(%q).Name() = %q", n, p.Name())
		}
		delete(want, n)
	}
	if len(want) != 0 {
		t.Fatalf("registry missing %v", want)
	}
}

// BenchmarkABAAgreeInto times one ABA decision over n small proposals: the
// ballots are cheap, so the n binary instances' event handling dominates.
func BenchmarkABAAgreeInto(b *testing.B) {
	for _, n := range []int{4, 7} {
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			proposals, good := goodBadProposals(n-1, 1, 64)
			dst := tensor.NewVector(64)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ctx := &Context{Members: n, Validator: accuracyLike(good), Rand: rng.New(1)}
				if _, err := (ABA{}).AgreeInto(dst, ctx, proposals); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
