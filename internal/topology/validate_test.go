package topology

import "testing"

// TestValidateRejects drives every rejection branch of Tree.Validate with a
// hand-broken copy of a small valid tree: NewECSM(3, 2, 2) has bottom
// clusters {0,1} {2,3} {4,5} {6,7}, middle clusters {0,2} {4,6} and the top
// cluster {0,4}; each leader is its cluster's first member.
func TestValidateRejects(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Tree)
		want   string
	}{
		{"one level", func(tr *Tree) { tr.Clusters = tr.Clusters[:1] },
			"topology: tree needs at least 2 levels, has 1"},
		{"two top clusters", func(tr *Tree) {
			tr.Clusters[0] = append(tr.Clusters[0], &Cluster{Index: 1, Members: []int{4}, Leader: 4})
		}, "topology: top level must be a single cluster, has 2"},
		{"device in two bottom clusters", func(tr *Tree) { tr.Clusters[2][1].Members[1] = 1 },
			"topology: device 1 in multiple bottom clusters"},
		{"device id past the device count", func(tr *Tree) { tr.Clusters[2][3].Members[1] = 8 },
			"topology: device 8 outside [0, 8)"},
		{"negative device id", func(tr *Tree) { tr.Clusters[2][0].Members[1] = -1 },
			"topology: device -1 outside [0, 8)"},
		{"empty cluster", func(tr *Tree) { tr.Clusters[1][1].Members = nil },
			"topology: empty cluster at level 1 index 1"},
		{"leader not a member", func(tr *Tree) { tr.Clusters[2][3].Leader = 5 },
			"topology: leader 5 not a member of cluster (2,3)"},
		{"leader missing from parent", func(tr *Tree) { tr.Clusters[2][3].Leader = 7 },
			"topology: leader 7 of (2,3) missing from parent cluster"},
		{"upper member not a leader below", func(tr *Tree) { tr.Clusters[1][1].Members = []int{4, 6, 7} },
			"topology: level 1 member 7 is not a leader below"},
		{"member count differs from child count", func(tr *Tree) { tr.Clusters[0][0].Members = []int{0, 4, 4} },
			"topology: level 0 has 3 members for 2 child clusters"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tree := mustECSM(t, 3, 2, 2)
			tc.mutate(tree)
			err := tree.Validate()
			if err == nil {
				t.Fatal("malformed tree accepted")
			}
			if err.Error() != tc.want {
				t.Fatalf("error %q, want %q", err, tc.want)
			}
		})
	}
}

// TestValidateAcceptsAnyOrder checks that validity does not depend on the
// order ids are listed in: the same tree with every member list reversed and
// the two middle clusters (hence the leaders below the top) swapped is valid.
func TestValidateAcceptsAnyOrder(t *testing.T) {
	tree := mustECSM(t, 3, 2, 2)
	for _, level := range tree.Clusters {
		for _, c := range level {
			for i, j := 0, len(c.Members)-1; i < j; i, j = i+1, j-1 {
				c.Members[i], c.Members[j] = c.Members[j], c.Members[i]
			}
		}
	}
	mid := tree.Clusters[1]
	mid[0], mid[1] = mid[1], mid[0]
	mid[0].Index, mid[1].Index = 0, 1
	for i, p := range tree.parentOf[2] {
		tree.parentOf[2][i] = 1 - p
	}
	if err := tree.Validate(); err != nil {
		t.Fatalf("reordered valid tree rejected: %v", err)
	}
}
