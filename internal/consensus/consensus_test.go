package consensus

import (
	"math"
	"testing"
	"testing/quick"

	"abdhfl/internal/rng"
	"abdhfl/internal/tensor"
)

// accuracyLike builds a validator that scores proposals by closeness to a
// reference "good" model: score = 1 / (1 + distance). All members share it
// unless overridden.
func accuracyLike(good tensor.Vector) Validator {
	return func(_ int, model tensor.Vector) float64 {
		return 1 / (1 + tensor.Distance(model, good))
	}
}

func goodBadProposals(nGood, nBad, dim int) ([]tensor.Vector, tensor.Vector) {
	good := tensor.Fill(tensor.NewVector(dim), 1)
	var proposals []tensor.Vector
	for i := 0; i < nGood; i++ {
		p := good.Clone()
		p[0] += 0.01 * float64(i)
		proposals = append(proposals, p)
	}
	for i := 0; i < nBad; i++ {
		proposals = append(proposals, tensor.Fill(tensor.NewVector(dim), -50))
	}
	return proposals, good
}

func TestVotingExcludesPoisoned(t *testing.T) {
	proposals, good := goodBadProposals(3, 1, 4)
	ctx := &Context{Members: 4, Validator: accuracyLike(good), Rand: rng.New(1)}
	out, st, err := Voting{}.Agree(ctx, proposals)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Excluded) != 1 || st.Excluded[0] != 3 {
		t.Fatalf("excluded = %v, want [3]", st.Excluded)
	}
	if d := tensor.Distance(out, good); d > 1 {
		t.Fatalf("agreed model off by %v", d)
	}
}

func TestVotingExcludesTwoOfFour(t *testing.T) {
	// The paper's §V-A scenario at the 57.8% bound: 2 of 4 top-level
	// partials are poisoned; validation voting must exclude both (this is
	// what lets prefix placement reach beyond a strict γ1=25% top filter).
	proposals, good := goodBadProposals(2, 2, 4)
	ctx := &Context{Members: 4, Validator: accuracyLike(good), Rand: rng.New(2)}
	out, st, err := Voting{}.Agree(ctx, proposals)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Excluded) != 2 {
		t.Fatalf("excluded = %v, want both poisoned", st.Excluded)
	}
	if d := tensor.Distance(out, good); d > 1 {
		t.Fatalf("agreed model off by %v", d)
	}
}

func TestVotingWithByzantineVoters(t *testing.T) {
	// One of four voters votes adversarially; honest majority still wins.
	proposals, good := goodBadProposals(3, 1, 4)
	ctx := &Context{
		Members:   4,
		Byzantine: map[int]bool{3: true},
		Validator: accuracyLike(good),
		Rand:      rng.New(3),
	}
	out, st, err := Voting{}.Agree(ctx, proposals)
	if err != nil {
		t.Fatal(err)
	}
	if d := tensor.Distance(out, good); d > 1 {
		t.Fatalf("agreed model off by %v (excluded %v)", d, st.Excluded)
	}
}

func TestVotingAllGoodKeepsAll(t *testing.T) {
	proposals, good := goodBadProposals(4, 0, 4)
	ctx := &Context{Members: 4, Validator: accuracyLike(good), Rand: rng.New(4)}
	_, st, err := Voting{}.Agree(ctx, proposals)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Excluded) != 0 {
		t.Fatalf("excluded honest proposals: %v", st.Excluded)
	}
}

func TestVotingRequiresValidator(t *testing.T) {
	proposals, _ := goodBadProposals(2, 0, 2)
	ctx := &Context{Members: 2, Rand: rng.New(1)}
	if _, _, err := (Voting{}).Agree(ctx, proposals); err == nil {
		t.Fatal("nil validator accepted")
	}
}

func TestVotingStatsShape(t *testing.T) {
	proposals, good := goodBadProposals(4, 0, 4)
	ctx := &Context{Members: 4, Validator: accuracyLike(good), Rand: rng.New(5)}
	_, st, err := Voting{}.Agree(ctx, proposals)
	if err != nil {
		t.Fatal(err)
	}
	if st.Rounds != 2 || st.ModelTransfers != 12 || st.Messages != 24 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestVotingAgreeIntoAllocatesOnlyItsTally holds a serial Voting instance to
// the one allocation its caller keeps, Stats.Votes: the ballots, scores and
// kept set of up to 16 proposals live on the stack, so a pipeline round's
// top-level vote costs one object.
func TestVotingAgreeIntoAllocatesOnlyItsTally(t *testing.T) {
	proposals, good := goodBadProposals(4, 0, 4)
	ctx := &Context{Members: 4, Validator: accuracyLike(good), Rand: rng.New(5)}
	dst := tensor.NewVector(4)
	if n := testing.AllocsPerRun(50, func() {
		if _, err := (Voting{}).AgreeInto(dst, ctx, proposals); err != nil {
			t.Fatal(err)
		}
	}); n != 1 {
		t.Fatalf("Voting.AgreeInto allocated %v objects per call, want 1 (Stats.Votes)", n)
	}
}

func TestVotingMemberProposalMismatch(t *testing.T) {
	proposals, good := goodBadProposals(3, 0, 4)
	ctx := &Context{Members: 5, Validator: accuracyLike(good), Rand: rng.New(1)}
	if _, _, err := (Voting{}).Agree(ctx, proposals); err == nil {
		t.Fatal("member/proposal mismatch accepted")
	}
}

func TestCommitteeExcludesPoisoned(t *testing.T) {
	proposals, good := goodBadProposals(5, 3, 4)
	ctx := &Context{Members: 8, Validator: accuracyLike(good), Rand: rng.New(6)}
	out, st, err := Committee{}.Agree(ctx, proposals)
	if err != nil {
		t.Fatal(err)
	}
	if d := tensor.Distance(out, good); d > 1 {
		t.Fatalf("committee agreed model off by %v (excluded %v)", d, st.Excluded)
	}
	for _, e := range st.Excluded {
		if e < 5 && len(st.Excluded) > 4 {
			t.Fatalf("too many honest proposals excluded: %v", st.Excluded)
		}
	}
}

func TestCommitteeDeterministicGivenSeed(t *testing.T) {
	proposals, good := goodBadProposals(5, 3, 4)
	run := func() []int {
		ctx := &Context{Members: 8, Validator: accuracyLike(good), Rand: rng.New(7)}
		_, st, err := Committee{}.Agree(ctx, proposals)
		if err != nil {
			t.Fatal(err)
		}
		return st.Excluded
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatal("non-deterministic committee")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("non-deterministic committee exclusions")
		}
	}
}

func TestApproxAgreementConverges(t *testing.T) {
	r := rng.New(8)
	n, dim := 7, 5
	proposals := make([]tensor.Vector, n)
	for i := range proposals {
		v := tensor.NewVector(dim)
		for j := range v {
			v[j] = r.NormFloat64()
		}
		proposals[i] = v
	}
	ctx := &Context{Members: n, Byzantine: map[int]bool{6: true}, Rand: r}
	out, st, err := ApproxAgreement{F: 2, Epsilon: 1e-4}.Agree(ctx, proposals)
	if err != nil {
		t.Fatal(err)
	}
	if st.Rounds == 0 {
		t.Fatal("no rounds recorded")
	}
	if !tensor.AllFinite(out) {
		t.Fatal("non-finite agreement")
	}
}

func TestApproxAgreementWithinHonestHull(t *testing.T) {
	// Validity: the agreed value must lie within the per-coordinate range of
	// the honest proposals despite Byzantine extremes.
	check := func(seed uint64) bool {
		r := rng.New(seed)
		n, dim := 7, 3
		proposals := make([]tensor.Vector, n)
		for i := range proposals {
			v := tensor.NewVector(dim)
			for j := range v {
				v[j] = r.NormFloat64() * 5
			}
			proposals[i] = v
		}
		byz := map[int]bool{r.Intn(n): true}
		ctx := &Context{Members: n, Byzantine: byz, Rand: r}
		out, _, err := ApproxAgreement{F: 2, Epsilon: 1e-6, MaxRounds: 200}.Agree(ctx, proposals)
		if err != nil {
			return false
		}
		for j := 0; j < dim; j++ {
			lo, hi := math.Inf(1), math.Inf(-1)
			for i := 0; i < n; i++ {
				if byz[i] {
					continue
				}
				lo = math.Min(lo, proposals[i][j])
				hi = math.Max(hi, proposals[i][j])
			}
			if out[j] < lo-1e-6 || out[j] > hi+1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestApproxAgreementRejectsTooManyByzantine(t *testing.T) {
	proposals, _ := goodBadProposals(4, 0, 3)
	ctx := &Context{
		Members:   4,
		Byzantine: map[int]bool{0: true, 1: true, 2: true},
		Rand:      rng.New(9),
	}
	if _, _, err := (ApproxAgreement{F: 1}).Agree(ctx, proposals); err == nil {
		t.Fatal("accepted 3 Byzantine of 4 with f=1")
	}
}

func TestApproxAgreementUnanimous(t *testing.T) {
	v := tensor.Vector{1, 2, 3}
	proposals := []tensor.Vector{v.Clone(), v.Clone(), v.Clone(), v.Clone()}
	ctx := &Context{Members: 4, Rand: rng.New(10)}
	out, _, err := ApproxAgreement{F: 1}.Agree(ctx, proposals)
	if err != nil {
		t.Fatal(err)
	}
	if tensor.Distance(out, v) > 1e-9 {
		t.Fatalf("unanimous agreement drifted: %v", out)
	}
}

func TestEmptyProposals(t *testing.T) {
	ctx := &Context{Members: 0, Rand: rng.New(1)}
	for _, p := range []Protocol{Voting{}, Committee{}, ApproxAgreement{}} {
		if _, _, err := p.Agree(ctx, nil); err == nil {
			t.Fatalf("%s accepted empty proposals", p.Name())
		}
	}
}

func TestByName(t *testing.T) {
	for _, n := range Names() {
		p, err := ByName(n)
		if err != nil || p == nil {
			t.Fatalf("ByName(%q): %v", n, err)
		}
		if p.Name() != n {
			t.Fatalf("ByName(%q).Name() = %q", n, p.Name())
		}
	}
	if _, err := ByName("zzz"); err == nil {
		t.Fatal("unknown protocol accepted")
	}
}

func BenchmarkVoting4x2500(b *testing.B) {
	proposals, good := goodBadProposals(3, 1, 2500)
	ctx := &Context{Members: 4, Validator: accuracyLike(good), Rand: rng.New(1)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := (Voting{}).Agree(ctx, proposals); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkApproxAgreement7x500(b *testing.B) {
	r := rng.New(1)
	proposals := make([]tensor.Vector, 7)
	for i := range proposals {
		v := tensor.NewVector(500)
		for j := range v {
			v[j] = r.NormFloat64()
		}
		proposals[i] = v
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx := &Context{Members: 7, Byzantine: map[int]bool{6: true}, Rand: rng.New(uint64(i))}
		if _, _, err := (ApproxAgreement{F: 2, Epsilon: 1e-3}).Agree(ctx, proposals); err != nil {
			b.Fatal(err)
		}
	}
}

func TestPBFTCommitsHonestPrimary(t *testing.T) {
	proposals, good := goodBadProposals(4, 0, 4)
	ctx := &Context{Members: 4, Validator: accuracyLike(good), Rand: rng.New(41)}
	out, st, err := PBFT{}.Agree(ctx, proposals)
	if err != nil {
		t.Fatal(err)
	}
	if st.Rounds != 1 {
		t.Fatalf("views = %d, want 1 (first primary is honest)", st.Rounds)
	}
	if d := tensor.Distance(out, good); d > 1 {
		t.Fatalf("pbft committed a bad model: %v", d)
	}
}

func TestPBFTViewChangesPastBadPrimary(t *testing.T) {
	// Primary 0's proposal is poisoned: honest replicas refuse the prepare
	// quorum and the protocol view-changes to primary 1.
	proposals, good := goodBadProposals(3, 1, 4)
	// Move the bad proposal to index 0 so it is the first primary's.
	proposals[0], proposals[3] = proposals[3], proposals[0]
	ctx := &Context{Members: 4, Validator: accuracyLike(good), Rand: rng.New(42)}
	out, st, err := PBFT{F: 1}.Agree(ctx, proposals)
	if err != nil {
		t.Fatal(err)
	}
	if st.Rounds < 2 {
		t.Fatalf("expected a view change, got %d views", st.Rounds)
	}
	if len(st.Excluded) == 0 || st.Excluded[0] != 0 {
		t.Fatalf("excluded = %v, want view 0 rejected", st.Excluded)
	}
	if d := tensor.Distance(out, good); d > 1 {
		t.Fatalf("pbft committed a bad model after view change: %v", d)
	}
}

func TestPBFTByzantineVotersCannotForceBadCommit(t *testing.T) {
	// One Byzantine replica upvotes the poisoned primary; quorum 2f+1 = 3
	// still requires two honest prepares, which the bad proposal cannot get.
	proposals, good := goodBadProposals(3, 1, 4)
	proposals[0], proposals[3] = proposals[3], proposals[0]
	ctx := &Context{
		Members:   4,
		Byzantine: map[int]bool{1: true},
		Validator: accuracyLike(good),
		Rand:      rng.New(43),
	}
	out, _, err := PBFT{F: 1}.Agree(ctx, proposals)
	if err != nil {
		t.Fatal(err)
	}
	if d := tensor.Distance(out, good); d > 1 {
		t.Fatalf("byzantine votes forced a bad commit: %v", d)
	}
}

func TestPBFTExhaustedViews(t *testing.T) {
	// All proposals are mutually unacceptable: every replica scores only its
	// own proposal highly, so no primary ever reaches quorum.
	n := 4
	proposals := make([]tensor.Vector, n)
	for i := range proposals {
		v := tensor.NewVector(3)
		v[0] = float64(i * 1000)
		proposals[i] = v
	}
	ctx := &Context{
		Members: n,
		Validator: func(member int, model tensor.Vector) float64 {
			if model[0] == float64(member*1000) {
				return 1
			}
			return 0
		},
		Rand: rng.New(44),
	}
	if _, _, err := (PBFT{F: 1}).Agree(ctx, proposals); err == nil {
		t.Fatal("expected exhausted-views error")
	}
}

func TestPBFTRequiresValidator(t *testing.T) {
	proposals, _ := goodBadProposals(3, 0, 3)
	ctx := &Context{Members: 3, Rand: rng.New(45)}
	if _, _, err := (PBFT{}).Agree(ctx, proposals); err == nil {
		t.Fatal("nil validator accepted")
	}
}

// TestAgreeIntoDecidesIntoTheCallersVector: every registered protocol writes
// into dst the bits Agree returns — over whatever dst held before — leaves
// the proposals as they were, and refuses a destination of the wrong
// dimension with an error rather than a panic.
func TestAgreeIntoDecidesIntoTheCallersVector(t *testing.T) {
	proposals, good := goodBadProposals(6, 1, 8)
	ctx := func() *Context {
		return &Context{Members: 7, Byzantine: map[int]bool{6: true}, Validator: accuracyLike(good), Rand: rng.New(4), Round: 2}
	}
	for _, name := range Names() {
		p, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		before := make([]tensor.Vector, len(proposals))
		for i, q := range proposals {
			before[i] = q.Clone()
		}
		want, wantSt, err := p.Agree(ctx(), proposals)
		if err != nil {
			t.Fatalf("%s.Agree: %v", name, err)
		}
		dst := tensor.Fill(tensor.NewVector(8), math.NaN())
		st, err := p.AgreeInto(dst, ctx(), proposals)
		if err != nil {
			t.Fatalf("%s.AgreeInto: %v", name, err)
		}
		for i := range want {
			if math.Float64bits(dst[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s: AgreeInto decided %v, Agree %v", name, dst, want)
			}
		}
		if !sameStats(st, wantSt) {
			t.Fatalf("%s: AgreeInto stats %+v, Agree %+v", name, st, wantSt)
		}
		for i := range proposals {
			if tensor.Distance(proposals[i], before[i]) != 0 {
				t.Fatalf("%s changed proposal %d", name, i)
			}
		}
		for _, bad := range []tensor.Vector{nil, tensor.NewVector(7)} {
			if _, err := p.AgreeInto(bad, ctx(), proposals); err == nil {
				t.Fatalf("%s accepted a %d-element destination for 8-element proposals", name, len(bad))
			}
		}
	}
}
