// Package topology builds and analyses the ABD-HFL tree: a leaf-derived
// hierarchy of learning clusters in which every cluster leader is also a
// member of a cluster one level up, and the top level is a single
// leaderless-capable cluster of peers. It implements both the Equal Cluster
// Size Model (ECSM — every non-top cluster has m members) and the Arbitrary
// Cluster Size Model (ACSM), plus the paper's Byzantine-tolerance theory
// (Theorems 1-3 and corollaries) as executable functions.
package topology

import (
	"fmt"
	"math"
)

// Cluster is one learning cluster: an ordered set of device ids with a
// designated leader (the leader is always a member). At the top level the
// leader is only used by BRA-configured runs; CBA treats all members as
// equals.
type Cluster struct {
	Level   int
	Index   int
	Members []int
	Leader  int
}

// Size returns the number of members.
func (c *Cluster) Size() int { return len(c.Members) }

// Contains reports whether device id is a member.
func (c *Cluster) Contains(id int) bool {
	for _, m := range c.Members {
		if m == id {
			return true
		}
	}
	return false
}

// Tree is an ABD-HFL hierarchy. Devices are identified by their bottom-level
// id in [0, NumDevices); a device that leads its cluster also appears as a
// member at the level above, recursively up to the top.
//
// Levels are indexed as in the paper: level 0 is the top, level Depth()-1 is
// the bottom.
type Tree struct {
	// Clusters[l] lists the clusters of level l.
	Clusters [][]*Cluster
	// parentOf[l][i] is the index of the level l-1 cluster containing the
	// leader of Clusters[l][i] (undefined for l == 0).
	parentOf [][]int
}

// Depth returns the number of levels (the paper's L+1).
func (t *Tree) Depth() int { return len(t.Clusters) }

// Bottom returns the bottom level index (the paper's L).
func (t *Tree) Bottom() int { return t.Depth() - 1 }

// NumDevices returns the number of bottom-level devices.
func (t *Tree) NumDevices() int {
	n := 0
	for _, c := range t.Clusters[t.Bottom()] {
		n += c.Size()
	}
	return n
}

// Top returns the single top-level cluster.
func (t *Tree) Top() *Cluster { return t.Clusters[0][0] }

// Parent returns the cluster at level l-1 that the leader of cluster
// (l, idx) belongs to. It panics for the top level.
func (t *Tree) Parent(l, idx int) *Cluster {
	if l == 0 {
		panic("topology: top-level cluster has no parent")
	}
	return t.Clusters[l-1][t.parentOf[l][idx]]
}

// ChildClusters returns the clusters at level l+1 whose leaders are members
// of cluster (l, idx), in member order. The bottom level has no children.
func (t *Tree) ChildClusters(l, idx int) []*Cluster {
	if l == t.Bottom() {
		return nil
	}
	var out []*Cluster
	for ci, c := range t.Clusters[l+1] {
		if t.parentOf[l+1][ci] == idx {
			out = append(out, c)
		}
	}
	return out
}

// ChildIndex maps member mi of upper-level cluster c to the index of the
// child cluster it leads at level c.Level+1 — child clusters are in member
// order, which is what lets a level's outputs be read as the next level's
// inputs. It panics when c has fewer than mi+1 children.
func (t *Tree) ChildIndex(c *Cluster, mi int) int {
	for ci, p := range t.parentOf[c.Level+1] {
		if p != c.Index {
			continue
		}
		if mi == 0 {
			return t.Clusters[c.Level+1][ci].Index
		}
		mi--
	}
	panic("topology: member without child cluster")
}

// DisseminationTransfers counts the model transfers of Algorithm 5: every
// cluster leader broadcasts the global model to its cluster members
// (members-1 transfers per cluster, every level).
func (t *Tree) DisseminationTransfers() int {
	n := 0
	for _, level := range t.Clusters {
		for _, c := range level {
			n += c.Size() - 1
		}
	}
	return n
}

// LeafDescendants returns the bottom-level device ids reachable from cluster
// (l, idx) by following child clusters. For a bottom cluster this is its
// member list.
func (t *Tree) LeafDescendants(l, idx int) []int {
	if l == t.Bottom() {
		return append([]int(nil), t.Clusters[l][idx].Members...)
	}
	var out []int
	for ci := range t.Clusters[l+1] {
		if t.parentOf[l+1][ci] == idx {
			out = append(out, t.LeafDescendants(l+1, ci)...)
		}
	}
	return out
}

// LeafCount is len(LeafDescendants(l, idx)), counted without building the
// list.
func (t *Tree) LeafCount(l, idx int) int {
	if l == t.Bottom() {
		return len(t.Clusters[l][idx].Members)
	}
	n := 0
	for ci := range t.Clusters[l+1] {
		if t.parentOf[l+1][ci] == idx {
			n += t.LeafCount(l+1, ci)
		}
	}
	return n
}

// ClusterOf returns the bottom-level cluster containing device id, or nil.
func (t *Tree) ClusterOf(id int) *Cluster {
	for _, c := range t.Clusters[t.Bottom()] {
		if c.Contains(id) {
			return c
		}
	}
	return nil
}

// Validate checks the structural invariants of an ABD-HFL tree: every
// cluster is non-empty, leaders are members of their clusters, every
// non-top-level leader appears exactly once at the level above, the top
// level is a single cluster, and device ids at the bottom are unique and in
// [0, NumDevices).
//
// Set questions are answered over one bitset of device ids, reused level by
// level, rather than a map or a sorted copy of the ids: every builder and
// every engine's Config.Validate calls this, and a 100k-device tree would
// otherwise hash or copy 100k ids per call.
func (t *Tree) Validate() error {
	if t.Depth() < 2 {
		return fmt.Errorf("topology: tree needs at least 2 levels, has %d", t.Depth())
	}
	if len(t.Clusters[0]) != 1 {
		return fmt.Errorf("topology: top level must be a single cluster, has %d", len(t.Clusters[0]))
	}
	n := t.NumDevices()
	ids := make(idSet, (n+63)/64)
	for _, c := range t.Clusters[t.Bottom()] {
		for _, id := range c.Members {
			if id < 0 || id >= n {
				return fmt.Errorf("topology: device %d outside [0, %d)", id, n)
			}
			if ids.has(id) {
				return fmt.Errorf("topology: device %d in multiple bottom clusters", id)
			}
			ids.add(id)
		}
	}
	for l, level := range t.Clusters {
		for i, c := range level {
			if c.Size() == 0 {
				return fmt.Errorf("topology: empty cluster at level %d index %d", l, i)
			}
			if !c.Contains(c.Leader) {
				return fmt.Errorf("topology: leader %d not a member of cluster (%d,%d)", c.Leader, l, i)
			}
			if l > 0 {
				p := t.Parent(l, i)
				if !p.Contains(c.Leader) {
					return fmt.Errorf("topology: leader %d of (%d,%d) missing from parent cluster", c.Leader, l, i)
				}
			}
		}
	}
	// Upper-level members must be exactly the leaders of the level below.
	for l := 0; l < t.Bottom(); l++ {
		clear(ids)
		for _, c := range t.Clusters[l+1] {
			ids.add(c.Leader)
		}
		count := 0
		for _, c := range t.Clusters[l] {
			for _, m := range c.Members {
				if !ids.has(m) {
					return fmt.Errorf("topology: level %d member %d is not a leader below", l, m)
				}
				count++
			}
		}
		if count != len(t.Clusters[l+1]) {
			return fmt.Errorf("topology: level %d has %d members for %d child clusters", l, count, len(t.Clusters[l+1]))
		}
	}
	return nil
}

// idSet is a set of non-negative ids, one bit each. add ignores an id past
// the words the set was made with, so has never reports one.
type idSet []uint64

func (s idSet) add(id int) {
	if w := id >> 6; id >= 0 && w < len(s) {
		s[w] |= 1 << (id & 63)
	}
}

func (s idSet) has(id int) bool {
	w := id >> 6
	return id >= 0 && w < len(s) && s[w]&(1<<(id&63)) != 0
}

// NewECSM builds an Equal Cluster Size Model tree: levels+1 tiers where
// every cluster below the top has exactly m members and the top cluster has
// topNodes members. Device ids are assigned consecutively to bottom clusters
// in id order (the evaluation's "clients are ordered by client id") and each
// cluster's leader is its lowest-id member.
//
// The shape is topNodes * m^(levels-2) bottom clusters of m devices each,
// topNodes * m^(levels-1) devices; a shape whose count overflows an int is an
// error. The paper's evaluation uses NewECSM(3, 4, 4): 3 levels, cluster size
// 4, 4 top nodes, 64 clients.
func NewECSM(levels, m, topNodes int) (*Tree, error) {
	if levels < 2 {
		return nil, fmt.Errorf("topology: ECSM needs >= 2 levels, got %d", levels)
	}
	if m < 1 || topNodes < 1 {
		return nil, fmt.Errorf("topology: ECSM needs positive cluster size and top size")
	}
	devices, err := ecsmDevices(levels, m, topNodes)
	if err != nil {
		return nil, err
	}
	t := &Tree{
		Clusters: make([][]*Cluster, levels),
		parentOf: make([][]int, levels),
	}
	// Bottom level: topNodes * m^(levels-2) clusters... built top-down by
	// cluster counts: level l (0-indexed, 0=top) has topNodes*m^(l-1)
	// clusters for l >= 1, and 1 cluster at l = 0.
	counts := make([]int, levels)
	counts[0] = 1
	n := topNodes
	for l := 1; l < levels; l++ {
		counts[l] = n
		n *= m
	}
	bottom := levels - 1
	// Assign device ids to bottom clusters consecutively.
	t.Clusters[bottom] = ecsmLevel(bottom, counts[bottom], m, func(i, j int) int { return i*m + j })
	// Build upper levels from leaders below.
	for l := bottom - 1; l >= 0; l-- {
		size := m
		if l == 0 {
			size = topNodes
		}
		below := t.Clusters[l+1]
		t.Clusters[l] = ecsmLevel(l, counts[l], size, func(i, j int) int { return below[i*size+j].Leader })
		t.parentOf[l+1] = make([]int, len(below))
		for ci := range below {
			t.parentOf[l+1][ci] = ci / size
		}
	}
	t.parentOf[0] = nil
	built := t.NumDevices()
	if built != devices {
		return nil, fmt.Errorf("topology: internal error, built %d devices, want %d", built, devices)
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}

// ecsmDevices returns NewECSM(levels, m, topNodes)'s device count, checking
// each level's cluster count on the way for overflow: level l >= 1 has
// topNodes * m^(l-1) clusters and the devices are the bottom's m members each.
func ecsmDevices(levels, m, topNodes int) (int, error) {
	n := topNodes
	for l := 1; l < levels; l++ {
		if n > math.MaxInt/m {
			return 0, fmt.Errorf("topology: ECSM with %d levels, cluster size %d and %d top nodes overflows an int", levels, m, topNodes)
		}
		n *= m
	}
	return n, nil
}

// ecsmLevel returns level l's n clusters of size members each, member(i, j)
// being cluster i's j-th member and the first its leader. The clusters, and
// their member lists, are cut from one slab apiece: a 100k-device tree is a
// few allocations a level, not two a cluster.
func ecsmLevel(l, n, size int, member func(i, j int) int) []*Cluster {
	out := make([]*Cluster, n)
	cs := make([]Cluster, n)
	ids := make([]int, n*size)
	for i := range cs {
		members := ids[i*size : (i+1)*size : (i+1)*size]
		for j := range members {
			members[j] = member(i, j)
		}
		cs[i] = Cluster{Level: l, Index: i, Members: members, Leader: members[0]}
		out[i] = &cs[i]
	}
	return out
}
