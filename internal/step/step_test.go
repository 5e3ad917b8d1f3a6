package step

import (
	"errors"
	"fmt"
	"math"
	"os/exec"
	"slices"
	"strings"
	"testing"

	"abdhfl/internal/aggregate"
	"abdhfl/internal/codec"
	"abdhfl/internal/consensus"
	"abdhfl/internal/dataset"
	"abdhfl/internal/nn"
	"abdhfl/internal/rng"
	"abdhfl/internal/telemetry"
	"abdhfl/internal/tensor"
	"abdhfl/internal/trace"
)

// fixture is a small cluster: n honest-looking models of the default shape,
// per-member data to score on, and a fully attached observer.
type fixture struct {
	sizes []int
	vecs  []tensor.Vector
	ids   []int
	data  []*dataset.Dataset
	reg   *telemetry.Registry
	seen  []telemetry.FilterDecision
	obs   *Observer
}

func newFixture(t testing.TB, n int) *fixture {
	t.Helper()
	r := rng.New(5)
	f := &fixture{sizes: ModelSizes(nil), reg: telemetry.New()}
	pool := dataset.Generate(r.Derive("data"), 40*n, dataset.DefaultGen())
	f.data = dataset.PartitionIID(r.Derive("part"), pool, n)
	for i := 0; i < n; i++ {
		f.vecs = append(f.vecs, nn.New(r.DeriveN("model", uint64(i)), f.sizes...).Params())
		f.ids = append(f.ids, 100+i)
	}
	// Member 0's model is far from the rest: something for the rules to act on.
	tensor.Scale(f.vecs[0], -40, f.vecs[0])
	f.obs = NewObserver(f.reg, "test", 3, func(d telemetry.FilterDecision) {
		d.Kept, d.Clipped, d.Discarded = append([]int(nil), d.Kept...), append([]int(nil), d.Clipped...), append([]int(nil), d.Discarded...)
		f.seen = append(f.seen, d)
	}, trace.NewTracer(1, 0))
	return f
}

func (f *fixture) counter(name string) int64 { return f.reg.Counter(name).Value() }

func TestAggregateBRAMatchesTheRuleAndReports(t *testing.T) {
	f := newFixture(t, 5)
	rule := Rule{BRA: aggregate.NewMultiKrum(0.25)}
	want, err := rule.BRA.Aggregate(f.vecs)
	if err != nil {
		t.Fatal(err)
	}
	st := NewStepper(f.obs, 2, nn.NewEvalPool(f.sizes...), false)
	dst := tensor.NewVector(len(want))
	got, v, comm, err := st.Aggregate(rule, Input{Level: 2, Cluster: 7, Round: 3, Vecs: f.vecs, IDs: f.ids, Dst: dst})
	if err != nil {
		t.Fatal(err)
	}
	if &got[0] != &dst[0] || tensor.Distance(got, want) != 0 {
		t.Fatal("a BRA step must return its Dst holding the rule's output")
	}
	if comm != (Comm{}) || v.Excluded != 0 {
		t.Fatalf("a BRA step reports no agreement traffic, got %+v excluded %d", comm, v.Excluded)
	}
	if v.Rule != "multi-krum" || len(v.Discarded) != 1 || v.Discarded[0] != 100 || len(v.Kept) != 4 {
		t.Fatalf("verdict %+v: want multi-krum discarding contributor 100", v)
	}
	if kept, filtered := v.Counts(); kept != 4 || filtered != 1 {
		t.Fatalf("Counts = %d, %d", kept, filtered)
	}
	if len(f.seen) != 1 {
		t.Fatalf("%d decisions published", len(f.seen))
	}
	d := f.seen[0]
	if d.Engine != "test" || d.Level != 2 || d.Cluster != 7 || d.Round != 3 || d.Rule != "multi-krum" || fmt.Sprint(d.Discarded) != "[100]" {
		t.Fatalf("decision %+v", d)
	}
	if k, x := f.counter(`abdhfl_filter_kept_total{engine="test",level="2"}`), f.counter(`abdhfl_filter_discarded_total{engine="test",level="2"}`); k != 4 || x != 1 {
		t.Fatalf("level-2 counters kept %d discarded %d", k, x)
	}
}

func TestAggregateCBAMatchesTheProtocolAndReports(t *testing.T) {
	f := newFixture(t, 4)
	rule := Rule{CBA: consensus.Voting{}}
	ctx := &consensus.Context{
		Members: 4, Rand: rng.New(9), Round: 1,
		Validator: func(m int, model tensor.Vector) float64 {
			e := nn.NewShaped(f.sizes...)
			e.SetParams(model)
			return nn.Accuracy(e, f.data[m])
		},
	}
	want, wantStats, err := rule.CBA.Agree(ctx, f.vecs)
	if err != nil {
		t.Fatal(err)
	}
	st := NewStepper(f.obs, 2, nn.NewEvalPool(f.sizes...), false)
	// IDs index Local: contributor 100+i scores on data[i].
	local := make([]*dataset.Dataset, 104)
	copy(local[100:], f.data)
	dst := tensor.Fill(tensor.NewVector(len(want)), math.NaN())
	in := Input{Level: 1, Round: 1, Vecs: f.vecs, IDs: f.ids, Dst: dst, Rand: rng.New(9), Workers: 2, Local: local}
	got, v, comm, err := st.Aggregate(rule, in)
	if err != nil {
		t.Fatal(err)
	}
	if &got[0] != &dst[0] || tensor.Distance(got, want) != 0 {
		t.Fatal("a CBA step must decide the protocol's model into its Dst")
	}
	if comm.ModelTransfers != wantStats.ModelTransfers || comm.ScalarMessages != wantStats.Messages-wantStats.ModelTransfers {
		t.Fatalf("comm %+v vs stats %+v", comm, wantStats)
	}
	if v.Rule != "cba:voting" || v.Excluded != len(wantStats.Excluded) || len(v.Discarded) != v.Excluded || len(v.Kept)+len(v.Discarded) != 4 {
		t.Fatalf("verdict %+v, protocol excluded %v", v, wantStats.Excluded)
	}
	for i, x := range wantStats.Excluded {
		if v.Discarded[i] != 100+x {
			t.Fatalf("discarded %v, protocol excluded members %v", v.Discarded, wantStats.Excluded)
		}
	}
	if got := f.counter(`abdhfl_consensus_excluded_total{engine="test"}`); got != int64(v.Excluded) {
		t.Fatalf("excluded counter %d, verdict %d", got, v.Excluded)
	}

	// Nil IDs are positions (Shards then does the scoring), and the rule
	// keeps its tagged name.
	dst = tensor.NewVector(len(want))
	in.Dst, in.IDs, in.Local, in.Shards, in.Rand = dst, nil, nil, f.data, rng.New(9)
	got, v, _, err = st.Aggregate(rule, in)
	if err != nil {
		t.Fatal(err)
	}
	if &got[0] != &dst[0] || tensor.Distance(got, want) != 0 || v.Rule != "cba:voting" {
		t.Fatalf("Dst not honoured: rule %q", v.Rule)
	}
}

// failing errors on its nth call and is the inner rule otherwise.
type failing struct {
	aggregate.Aggregator
	calls *int
	nth   int
}

func (f failing) AggregateInto(dst tensor.Vector, s *aggregate.Scratch, u []tensor.Vector) error {
	*f.calls++
	if *f.calls == f.nth {
		return errors.New("boom")
	}
	return f.Aggregator.AggregateInto(dst, s, u)
}

func TestAggregateErrorIsCountedAndKept(t *testing.T) {
	f := newFixture(t, 4)
	calls := 0
	rule := Rule{BRA: failing{aggregate.Mean{}, &calls, 2}}
	st := NewStepper(f.obs, 1, nn.NewEvalPool(f.sizes...), false)
	in := Input{Level: 1, Cluster: 4, Round: 6, Vecs: f.vecs, Dst: tensor.NewVector(len(f.vecs[0]))}
	for i := 0; i < 3; i++ {
		_, _, _, err := st.Aggregate(rule, in)
		if (err != nil) != (i == 1) {
			t.Fatalf("call %d: err = %v", i, err)
		}
	}
	if _, _, _, err := st.Aggregate(rule, Input{Level: 2}); err == nil {
		t.Fatal("a step over no models must fail")
	}
	for _, r := range []Rule{{BRA: aggregate.Mean{}}, {CBA: consensus.Voting{}}} {
		for _, dst := range []tensor.Vector{nil, tensor.NewVector(len(f.vecs[0]) - 1)} {
			if _, _, _, err := st.Aggregate(r, Input{Level: 2, Vecs: f.vecs, Dst: dst, Shards: f.data, Rand: rng.New(1)}); err == nil {
				t.Fatalf("%s: a step into a %d-element Dst must fail", r.Name(), len(dst))
			}
		}
	}
	if got := f.counter(`abdhfl_step_errors_total{engine="test",level="1"}`); got != 1 {
		t.Fatalf("level-1 error counter = %d, want 1", got)
	}
	err := f.obs.Err()
	if err == nil || !strings.Contains(err.Error(), "level 1 cluster 4 round 6") || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("first error = %v", err)
	}
	if len(f.seen) != 2 {
		t.Fatalf("%d decisions published for 2 successful steps", len(f.seen))
	}
}

func TestNothingObservedRecordsNothing(t *testing.T) {
	f := newFixture(t, 4)
	var nobody *Observer
	if nobody.Err() != nil {
		t.Fatal("nil observer has an error")
	}
	for _, obs := range []*Observer{nobody, NewObserver(nil, "x", 3, nil, nil)} {
		st := NewStepper(obs, 1, nn.NewEvalPool(f.sizes...), false)
		if st.Records() {
			t.Fatal("an unobserved stepper must not pay for auditing")
		}
		_, v, _, err := st.Aggregate(Rule{BRA: aggregate.Median{}}, Input{Vecs: f.vecs, Dst: tensor.NewVector(len(f.vecs[0]))})
		if err != nil || v.Kept != nil || v.Rule != "" {
			t.Fatalf("err %v verdict %+v", err, v)
		}
		_, v, _, err = st.Aggregate(Rule{CBA: consensus.Voting{}}, Input{Vecs: f.vecs, Dst: tensor.NewVector(len(f.vecs[0])), Shards: f.data, Rand: rng.New(1)})
		if err != nil || v.Kept != nil {
			t.Fatalf("err %v verdict %+v", err, v)
		}
	}
	// ...unless the caller ships verdicts itself.
	st := NewStepper(nobody, 1, nn.NewEvalPool(f.sizes...), true)
	_, v, _, err := st.Aggregate(Rule{BRA: aggregate.Median{}}, Input{Vecs: f.vecs, Dst: tensor.NewVector(len(f.vecs[0]))})
	if err != nil || len(v.Kept)+len(v.Discarded) != 4 || v.Rule != "median" {
		t.Fatalf("err %v verdict %+v", err, v)
	}
}

func TestProtocolByzantineFollowsContributorIDs(t *testing.T) {
	st := NewStepper(nil, 1, nn.NewEvalPool(ModelSizes(nil)...), false)
	in := &Input{Vecs: make([]tensor.Vector, 3), IDs: []int{4, 9, 2}}
	if st.protocolByzantine(in) != nil {
		t.Fatal("no flags, no map")
	}
	in.Byzantine = map[int]bool{9: true, 0: true}
	if got := fmt.Sprint(st.protocolByzantine(in)); got != "map[1:true]" {
		t.Fatalf("member map %s, want member 1 (contributor 9) only", got)
	}
	in.IDs = nil
	if got := fmt.Sprint(st.protocolByzantine(in)); got != "map[0:true]" {
		t.Fatalf("positions as ids: %s", got)
	}
}

func TestShardBallotMatchesCentralBallots(t *testing.T) {
	f := newFixture(t, 4)
	rule := Rule{CBA: consensus.ABA{}}
	if !rule.NeedsBallots() || (Rule{CBA: consensus.Voting{}}).NeedsBallots() || (Rule{BRA: aggregate.Mean{}}).NeedsBallots() {
		t.Fatal("only ABA consumes injected ballots")
	}
	st := NewStepper(nil, 1, nn.NewEvalPool(f.sizes...), false)
	want, _, _, err := st.Aggregate(rule, Input{Vecs: f.vecs, Dst: tensor.NewVector(len(f.vecs[0])), Shards: f.data, Rand: rng.New(3)})
	if err != nil {
		t.Fatal(err)
	}
	set := &consensus.BallotSet{Rows: make([][]bool, 4)}
	for m := range set.Rows {
		set.Rows[m] = NewStepper(nil, 1, nn.NewEvalPool(f.sizes...), false).ShardBallot(rule, f.data, m, f.vecs)
	}
	got, _, _, err := st.Aggregate(rule, Input{Vecs: f.vecs, Dst: tensor.NewVector(len(f.vecs[0])), Shards: f.data, Rand: rng.New(3), Ballots: set})
	if err != nil {
		t.Fatal(err)
	}
	if tensor.Distance(got, want) != 0 {
		t.Fatal("remote ballots changed the decision")
	}
}

func TestApplyQuorum(t *testing.T) {
	vecs := make([]tensor.Vector, 10)
	ids := make([]int, 10)
	for i := range ids {
		vecs[i], ids[i] = tensor.Vector{float64(i)}, 50+i
	}
	for _, phi := range []float64{0, 1, 1.5} {
		if v, _ := ApplyQuorum(phi, rng.New(1), 1, 0, vecs, ids); len(v) != 10 {
			t.Fatalf("phi %v subsampled to %d", phi, len(v))
		}
	}
	v1, i1 := ApplyQuorum(0.55, rng.New(1), 2, 3, vecs, ids)
	v2, i2 := ApplyQuorum(0.55, rng.New(1), 2, 3, vecs, ids)
	if len(v1) != 6 || fmt.Sprint(i1) != fmt.Sprint(i2) || fmt.Sprint(v1) != fmt.Sprint(v2) {
		t.Fatalf("want a repeatable 6-subset, got %v and %v", i1, i2)
	}
	for k, id := range i1 {
		if v1[k][0] != float64(id-50) {
			t.Fatal("vectors and ids fell out of step")
		}
	}
	if _, i3 := ApplyQuorum(0.55, rng.New(1), 2, 4, vecs, ids); fmt.Sprint(i3) == fmt.Sprint(i1) {
		t.Fatal("clusters must draw from their own streams")
	}
}

func TestSizesAndWireHelpers(t *testing.T) {
	if got := fmt.Sprint(ModelSizes(nil), ModelSizes([]int{8, 4})); got != fmt.Sprintf("[%d 32 %d] [%d 8 4 %d]", dataset.Dim, dataset.NumClasses, dataset.Dim, dataset.NumClasses) {
		t.Fatal(got)
	}
	v := tensor.Vector{1.5, -2, math.SmallestNonzeroFloat64, 1e300}
	want := v.Clone()
	if n, err := Hop(codec.Identity{}, v, nil); err != nil || n != 5+8*len(v) || !slices.Equal(v, want) {
		t.Fatalf("identity hop: %d bytes, %v, %v; want %d bytes and %v unchanged", n, err, v, 5+8*len(v), want)
	}
	// A lossy hop moves the value exactly as codec.Transcode does.
	ref := want.Clone()
	if _, err := codec.Transcode(codec.Int8Quant{}, ref, nil); err != nil {
		t.Fatal(err)
	}
	if n, err := Hop(codec.Int8Quant{}, v, nil); err != nil || n != (codec.Int8Quant{}).WireBytes(len(v)) || !slices.Equal(v, ref) {
		t.Fatalf("int8 hop: %d bytes, %v, %v; want %v", n, err, v, ref)
	}
	v[2] = math.Inf(1)
	if _, err := Hop(codec.Identity{}, v, nil); !errors.Is(err, codec.ErrNonFinite) {
		t.Fatalf("a non-finite vector crossed the hop: %v", err)
	}
}

// TestStepImportsNoEngine holds the layering: the step is what the engines
// share, so nothing it links may be an engine.
func TestStepImportsNoEngine(t *testing.T) {
	out, err := exec.Command("go", "list", "-deps", ".").Output()
	if err != nil {
		t.Skipf("go list: %v", err)
	}
	for _, engine := range []string{"core", "pipeline", "node", "experiments"} {
		if strings.Contains(string(out), "abdhfl/internal/"+engine+"\n") {
			t.Errorf("internal/step depends on internal/%s", engine)
		}
	}
}
