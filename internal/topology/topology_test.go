package topology

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"abdhfl/internal/rng"
)

func mustECSM(t *testing.T, levels, m, top int) *Tree {
	t.Helper()
	tree, err := NewECSM(levels, m, top)
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

func TestECSMPaperShape(t *testing.T) {
	// The paper's evaluation topology: 3 levels, cluster size 4, 4 top nodes,
	// 64 bottom clients.
	tree := mustECSM(t, 3, 4, 4)
	if tree.Depth() != 3 {
		t.Fatalf("depth = %d", tree.Depth())
	}
	if tree.NumDevices() != 64 {
		t.Fatalf("devices = %d", tree.NumDevices())
	}
	if len(tree.Clusters[2]) != 16 {
		t.Fatalf("bottom clusters = %d", len(tree.Clusters[2]))
	}
	if len(tree.Clusters[1]) != 4 {
		t.Fatalf("level-1 clusters = %d", len(tree.Clusters[1]))
	}
	if tree.Top().Size() != 4 {
		t.Fatalf("top size = %d", tree.Top().Size())
	}
}

func TestECSMValidates(t *testing.T) {
	for _, tc := range []struct{ levels, m, top int }{
		{2, 4, 4}, {3, 4, 4}, {4, 3, 5}, {3, 2, 2}, {5, 2, 3},
	} {
		tree, err := NewECSM(tc.levels, tc.m, tc.top)
		if err != nil {
			t.Fatalf("ECSM(%v): %v", tc, err)
		}
		if err := tree.Validate(); err != nil {
			t.Fatalf("ECSM(%v) invalid: %v", tc, err)
		}
	}
}

func TestECSMDeviceCountFormula(t *testing.T) {
	// Corollary 1: level l has Nt * m^l nodes.
	tree := mustECSM(t, 4, 3, 5)
	for l := 1; l < tree.Depth(); l++ {
		n := 0
		for _, c := range tree.Clusters[l] {
			n += c.Size()
		}
		want := 5 * int(math.Pow(3, float64(l)))
		if n != want {
			t.Fatalf("level %d nodes = %d, want %d", l, n, want)
		}
	}
}

func TestECSMRejectsBadShapes(t *testing.T) {
	if _, err := NewECSM(1, 4, 4); err == nil {
		t.Fatal("1-level tree accepted")
	}
	if _, err := NewECSM(3, 0, 4); err == nil {
		t.Fatal("zero cluster size accepted")
	}
	// A shape whose device count overflows an int is an error, not a
	// wrapped count that panics or exhausts memory in the build.
	for _, c := range [][3]int{{23, 8, 1}, {3, 1 << 32, 1 << 32}, {64, 2, 1}} {
		if _, err := NewECSM(c[0], c[1], c[2]); err == nil || !strings.Contains(err.Error(), "overflows") {
			t.Errorf("NewECSM%v: error %v, want an overflow", c, err)
		}
	}
}

// TestECSMDevicesOverflowBoundary counts shapes on both sides of the largest
// int: the product that reaches it exactly is a count, the next one an error.
func TestECSMDevicesOverflowBoundary(t *testing.T) {
	for _, c := range []struct {
		levels, m, top, want int // want -1: overflow
	}{
		{2, math.MaxInt, 1, math.MaxInt},
		{2, math.MaxInt/2 + 1, 2, -1},
		{63, 2, 1, 1 << 62},
		{64, 2, 1, -1},
		{3, 1 << 31, 1<<32 - 1, -1}, // the bottom's cluster count fits, its devices do not
		{3, 1 << 32, 1 << 32, -1},   // the bottom's cluster count already overflows
		{21, 8, 1, 1 << 60},
		{22, 8, 1, -1},
	} {
		got, err := ecsmDevices(c.levels, c.m, c.top)
		if c.want < 0 {
			if err == nil {
				t.Errorf("ecsmDevices(%d, %d, %d) = %d, want an overflow error", c.levels, c.m, c.top, got)
			}
			continue
		}
		if err != nil || got != c.want {
			t.Errorf("ecsmDevices(%d, %d, %d) = %d, %v; want %d", c.levels, c.m, c.top, got, err, c.want)
		}
	}
}

func TestLeadersAreLowestIDs(t *testing.T) {
	tree := mustECSM(t, 3, 4, 4)
	for _, c := range tree.Clusters[2] {
		if c.Leader != c.Members[0] {
			t.Fatalf("bottom leader %d != first member %d", c.Leader, c.Members[0])
		}
	}
	// Top members are the leaders of the 4 level-1 clusters: 0, 16, 32, 48.
	want := []int{0, 16, 32, 48}
	for i, m := range tree.Top().Members {
		if m != want[i] {
			t.Fatalf("top members = %v, want %v", tree.Top().Members, want)
		}
	}
}

func TestParentChildConsistency(t *testing.T) {
	tree := mustECSM(t, 4, 3, 4)
	for l := 1; l < tree.Depth(); l++ {
		for i, c := range tree.Clusters[l] {
			p := tree.Parent(l, i)
			if !p.Contains(c.Leader) {
				t.Fatalf("parent of (%d,%d) lacks leader", l, i)
			}
			found := false
			for _, ch := range tree.ChildClusters(p.Level, p.Index) {
				if ch == c {
					found = true
				}
			}
			if !found {
				t.Fatalf("(%d,%d) not among its parent's children", l, i)
			}
		}
	}
}

func TestLeafDescendantsPartition(t *testing.T) {
	tree := mustECSM(t, 3, 4, 4)
	// Descendants of top children partition the 64 devices.
	seen := map[int]bool{}
	for _, ch := range tree.ChildClusters(0, 0) {
		if n := tree.LeafCount(ch.Level, ch.Index); n != len(tree.LeafDescendants(ch.Level, ch.Index)) {
			t.Fatalf("cluster (%d,%d) counts %d leaves, lists %v", ch.Level, ch.Index, n, tree.LeafDescendants(ch.Level, ch.Index))
		}
		for _, leaf := range tree.LeafDescendants(ch.Level, ch.Index) {
			if seen[leaf] {
				t.Fatalf("leaf %d in two subtrees", leaf)
			}
			seen[leaf] = true
		}
	}
	if len(seen) != 64 || tree.LeafCount(0, 0) != 64 {
		t.Fatalf("descendants cover %d devices, the top counts %d; want 64", len(seen), tree.LeafCount(0, 0))
	}
}

func TestClusterOf(t *testing.T) {
	tree := mustECSM(t, 3, 4, 4)
	c := tree.ClusterOf(37)
	if c == nil || !c.Contains(37) {
		t.Fatal("ClusterOf failed")
	}
	if tree.ClusterOf(64) != nil {
		t.Fatal("ClusterOf out-of-range returned a cluster")
	}
}

func TestACSMValid(t *testing.T) {
	r := rng.New(1)
	tree, err := NewACSM(r, 100, 3, 6, 5)
	if err != nil {
		t.Fatal(err)
	}
	if tree.NumDevices() != 100 {
		t.Fatalf("devices = %d", tree.NumDevices())
	}
	if err := tree.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestACSMPropertyRandomShapes(t *testing.T) {
	check := func(seed uint64) bool {
		r := rng.New(seed)
		devices := 20 + r.Intn(200)
		minS := 2 + r.Intn(3)
		maxS := minS + r.Intn(4)
		tree, err := NewACSM(r, devices, minS, maxS, 4+r.Intn(4))
		if err != nil {
			return false
		}
		return tree.NumDevices() == devices && tree.Validate() == nil
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// --- Theory ---

func TestTheorem1(t *testing.T) {
	// (pm)^l type-I nodes, proportion p^l.
	if got := TypeICountAtLevel(0.75, 4, 0); got != 1 {
		t.Fatalf("level 0 count = %v", got)
	}
	if got := TypeICountAtLevel(0.75, 4, 1); got != 3 {
		t.Fatalf("level 1 count = %v", got)
	}
	if got := TypeIProportionAtLevel(0.75, 2); math.Abs(got-0.5625) > 1e-12 {
		t.Fatalf("level 2 proportion = %v", got)
	}
}

func TestTheorem2PaperNumber(t *testing.T) {
	// §V-A: γ1=γ2=25%, bottom level l=2 → 57.8125%.
	got := MaxByzantineProportion(0.25, 0.25, 2)
	if math.Abs(got-0.578125) > 1e-12 {
		t.Fatalf("bound = %v, want 0.578125", got)
	}
	tol := Tolerance{0.25, 0.25}
	if b := tol.BottomBound(3); math.Abs(b-0.578125) > 1e-12 {
		t.Fatalf("BottomBound = %v", b)
	}
}

func TestTheorem2CountMatchesProportion(t *testing.T) {
	check := func(seed uint64) bool {
		r := rng.New(seed)
		nt := 2 + r.Intn(6)
		m := 2 + r.Intn(4)
		g1 := r.Float64() * 0.4
		g2 := r.Float64() * 0.4
		l := r.Intn(4)
		count := MaxByzantineCount(nt, m, g1, g2, l)
		total := float64(nt) * math.Pow(float64(m), float64(l))
		prop := MaxByzantineProportion(g1, g2, l)
		return math.Abs(count/total-prop) < 1e-9
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestCorollary2LowerLevelsTolerateMore(t *testing.T) {
	// The tolerated proportion strictly increases with depth for γ2 > 0.
	check := func(seed uint64) bool {
		r := rng.New(seed)
		g1 := r.Float64() * 0.5
		g2 := 0.05 + r.Float64()*0.45
		prev := MaxByzantineProportion(g1, g2, 0)
		for l := 1; l < 6; l++ {
			cur := MaxByzantineProportion(g1, g2, l)
			if cur <= prev {
				return false
			}
			prev = cur
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestCorollary3MoreLevelsTolerateMore(t *testing.T) {
	// Fixed bottom population, more levels → higher bottom tolerance.
	tol := Tolerance{0.25, 0.25}
	if tol.BottomBound(3) <= tol.BottomBound(2) {
		t.Fatal("corollary 3 violated")
	}
	if tol.BottomBound(4) <= tol.BottomBound(3) {
		t.Fatal("corollary 3 violated at depth 4")
	}
}

func TestAdversarialPlacementAttainsBound(t *testing.T) {
	// On the paper's tree, greedy placement must produce exactly 37 Byzantine
	// leaves (57.8125% of 64) and survive ideal filtering.
	tree := mustECSM(t, 3, 4, 4)
	tol := Tolerance{0.25, 0.25}
	byz := tol.AdversarialPlacement(tree)
	if len(byz) != 37 {
		t.Fatalf("placement size = %d, want 37", len(byz))
	}
	if !tol.SurvivesFiltering(tree, byz) {
		t.Fatal("bound-attaining placement rejected by filtering")
	}
}

func TestOneMoreByzantineBreaksFiltering(t *testing.T) {
	// Adding any extra Byzantine device to the bound-attaining placement
	// must break at least the affected cluster chain for SOME addition;
	// specifically adding a device to an already-saturated honest bottom
	// cluster must break filtering.
	tree := mustECSM(t, 3, 4, 4)
	tol := Tolerance{0.25, 0.25}
	byz := tol.AdversarialPlacement(tree)
	// Find an honest bottom cluster already holding exactly 1 Byzantine
	// member and add a second.
	for _, c := range tree.Clusters[2] {
		n := 0
		for _, m := range c.Members {
			if byz[m] {
				n++
			}
		}
		if n == 1 {
			for _, m := range c.Members {
				if !byz[m] {
					byz[m] = true
					break
				}
			}
			break
		}
	}
	if len(byz) != 38 {
		t.Fatalf("augmented placement size = %d", len(byz))
	}
	if tol.SurvivesFiltering(tree, byz) {
		t.Fatal("over-bound placement survived filtering")
	}
}

func TestSurvivesFilteringPrefixAtBound(t *testing.T) {
	// The evaluation's prefix placement: whole clusters are poisoned first.
	// At 37/64 (57.8%) the top level sees 2 poisoned partials out of 4,
	// which exceeds γ1=25% — so prefix placement needs the stronger
	// validation-voting top level (γ1-style counting rejects it). Verify the
	// counting model agrees: prefix-37 fails under γ1=0.25 but passes under
	// γ1=0.5 (what voting achieves with an honest majority).
	tree := mustECSM(t, 3, 4, 4)
	byz := PrefixPlacement(tree, 37)
	if (Tolerance{0.25, 0.25}).SurvivesFiltering(tree, byz) {
		t.Fatal("prefix-37 should exceed a strict γ1=25% top")
	}
	if !(Tolerance{0.5, 0.25}).SurvivesFiltering(tree, byz) {
		t.Fatal("prefix-37 should survive a majority-voting top")
	}
}

func TestRelativeReliableNumber(t *testing.T) {
	tree := mustECSM(t, 3, 4, 4)
	// Poison one full bottom cluster: 4 of 64 nodes live in a Byzantine
	// cluster → ψ = 60/64.
	byz := map[int]bool{0: true, 1: true, 2: true, 3: true}
	psi := RelativeReliableNumber(tree, 2, byz, 0.25)
	if math.Abs(psi-60.0/64.0) > 1e-12 {
		t.Fatalf("ψ = %v", psi)
	}
	bound := ACSMMaxByzantineProportion(0.25, psi)
	if math.Abs(bound-(1-0.75*60.0/64.0)) > 1e-12 {
		t.Fatalf("ACSM bound = %v", bound)
	}
}

func TestTheorem3MonotoneInPsi(t *testing.T) {
	// The tolerated proportion decreases as ψ grows (inverse proportionality).
	prev := math.Inf(1)
	for psi := 0.0; psi <= 1.0; psi += 0.1 {
		b := ACSMMaxByzantineProportion(0.3, psi)
		if b > prev {
			t.Fatalf("bound not decreasing at ψ=%v", psi)
		}
		prev = b
	}
}

func TestPrefixPlacementPanics(t *testing.T) {
	tree := mustECSM(t, 3, 4, 4)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	PrefixPlacement(tree, 65)
}

func BenchmarkECSMBuild(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := NewECSM(4, 4, 4); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAdversarialPlacement(b *testing.B) {
	tree, err := NewECSM(5, 4, 4)
	if err != nil {
		b.Fatal(err)
	}
	tol := Tolerance{0.25, 0.25}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = tol.AdversarialPlacement(tree)
	}
}

func TestRenderTree(t *testing.T) {
	tree := mustECSM(t, 3, 2, 2)
	out := tree.Render(map[int]bool{0: true})
	if !strings.Contains(out, "top L0 C0") {
		t.Fatalf("missing top line: %q", out)
	}
	if !strings.Contains(out, "leaf-cluster") {
		t.Fatal("missing leaf clusters")
	}
	if !strings.Contains(out, "0!") {
		t.Fatal("marked device not flagged")
	}
	// Every bottom cluster appears.
	if strings.Count(out, "leaf-cluster") != len(tree.Clusters[tree.Bottom()]) {
		t.Fatal("wrong leaf-cluster count")
	}
}

func TestTreeSummary(t *testing.T) {
	tree := mustECSM(t, 3, 4, 4)
	sum := tree.Summary()
	if !strings.Contains(sum, "L0 (top): 1 clusters (1x4)") {
		t.Fatalf("summary = %q", sum)
	}
	if !strings.Contains(sum, "L2 (bottom): 16 clusters (16x4)") {
		t.Fatalf("summary = %q", sum)
	}
}

func TestRotatePreservesStructure(t *testing.T) {
	tree := mustECSM(t, 3, 4, 4)
	for k := 0; k < 6; k++ {
		rot, err := tree.Rotate(k)
		if err != nil {
			t.Fatalf("rotate %d: %v", k, err)
		}
		if rot.NumDevices() != 64 || rot.Depth() != 3 {
			t.Fatalf("rotate %d changed shape", k)
		}
		if err := rot.Validate(); err != nil {
			t.Fatalf("rotate %d invalid: %v", k, err)
		}
		// Bottom membership unchanged.
		for i, c := range rot.Clusters[2] {
			orig := tree.Clusters[2][i]
			for j, m := range c.Members {
				if m != orig.Members[j] {
					t.Fatalf("rotate %d changed cluster membership", k)
				}
			}
			if c.Leader != c.Members[k%4] {
				t.Fatalf("rotate %d leader = %d, want %d", k, c.Leader, c.Members[k%4])
			}
		}
	}
}

func TestRotateZeroIsIdentityLeadership(t *testing.T) {
	tree := mustECSM(t, 3, 4, 4)
	rot, err := tree.Rotate(0)
	if err != nil {
		t.Fatal(err)
	}
	for l := range tree.Clusters {
		for i := range tree.Clusters[l] {
			if rot.Clusters[l][i].Leader != tree.Clusters[l][i].Leader {
				t.Fatalf("rotate 0 changed leader at (%d,%d)", l, i)
			}
		}
	}
}

func TestRotateChangesUpperMembership(t *testing.T) {
	tree := mustECSM(t, 3, 4, 4)
	rot, err := tree.Rotate(1)
	if err != nil {
		t.Fatal(err)
	}
	// Top members should now be second members of their chains, not 0/16/32/48.
	same := 0
	for i, m := range rot.Top().Members {
		if m == tree.Top().Members[i] {
			same++
		}
	}
	if same == len(tree.Top().Members) {
		t.Fatal("rotation did not change upper membership")
	}
}

func TestRotateACSMProperty(t *testing.T) {
	check := func(seed uint64) bool {
		r := rng.New(seed)
		tree, err := NewACSM(r, 30+r.Intn(60), 3, 5, 4)
		if err != nil {
			return false
		}
		for k := 0; k < 4; k++ {
			rot, err := tree.Rotate(k)
			if err != nil || rot.Validate() != nil || rot.NumDevices() != tree.NumDevices() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestChildIndexAndDissemination: member mi of an upper cluster leads the
// mi-th child cluster (the order a level's outputs are read in), and
// Algorithm 5 costs members-1 transfers per cluster.
func TestChildIndexAndDissemination(t *testing.T) {
	for _, tree := range []*Tree{mustECSM(t, 3, 4, 4), mustECSM(t, 4, 3, 2)} {
		want := 0
		for l, level := range tree.Clusters {
			for _, c := range level {
				want += c.Size() - 1
				if l == tree.Bottom() {
					continue
				}
				children := tree.ChildClusters(l, c.Index)
				for mi, m := range c.Members {
					ci := tree.ChildIndex(c, mi)
					if ci != children[mi].Index || tree.Clusters[l+1][ci].Leader != m {
						t.Fatalf("level %d cluster %d member %d (device %d): child index %d", l, c.Index, mi, m, ci)
					}
				}
			}
		}
		if got := tree.DisseminationTransfers(); got != want {
			t.Fatalf("DisseminationTransfers = %d, want %d", got, want)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("ChildIndex past the last child must panic")
		}
	}()
	tree := mustECSM(t, 3, 4, 4)
	tree.ChildIndex(tree.Top(), 4)
}
