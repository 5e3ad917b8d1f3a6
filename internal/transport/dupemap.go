package transport

import "sync"

// DupeMap suppresses duplicate frames by (sender, sequence) key. Injected
// duplicates, transport-level retransmissions after a reconnect, and
// crossed wires all surface as frames re-carrying a sender's original Seq;
// the receive path consults the map once per frame and drops repeats before
// they reach the bus.
//
// Memory is bounded by two generations of at most capacity entries each
// (the design of dusk's p2p dupemap, with generations in place of expiring
// bloom filters): inserts go to the current generation, lookups check both,
// and filling the current generation rotates it into the previous slot,
// forgetting the oldest entries. A key is therefore remembered for at least
// `capacity` and at most `2*capacity` distinct inserts — exactly the
// recency window duplicate suppression needs, with no timer machinery.
//
// Nothing is sized at construction and both generations grow on demand, so
// a map costs what its traffic costs: a run moves hundreds of frames per
// endpoint against a default capacity of 65 536, and pre-sizing for the
// capacity was once four fifths of a cluster run's allocation.
type DupeMap struct {
	mu        sync.Mutex
	capacity  int
	cur, prev map[dupeKey]struct{}
	rotations int64
}

type dupeKey struct {
	from NodeID
	seq  uint64
}

// DefaultDupeCap is the per-generation capacity used when NewDupeMap is
// given a non-positive value.
const DefaultDupeCap = 1 << 16

// NewDupeMap returns a DupeMap remembering between capacity and 2*capacity
// recent (sender, seq) keys (<= 0 selects DefaultDupeCap).
func NewDupeMap(capacity int) *DupeMap {
	if capacity <= 0 {
		capacity = DefaultDupeCap
	}
	return &DupeMap{capacity: capacity, cur: map[dupeKey]struct{}{}}
}

// Seen reports whether (from, seq) was recorded within the retention
// window, recording it when new. Safe for concurrent use.
func (d *DupeMap) Seen(from NodeID, seq uint64) bool {
	k := dupeKey{from, seq}
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, ok := d.cur[k]; ok {
		return true
	}
	if _, ok := d.prev[k]; ok {
		return true
	}
	if len(d.cur) >= d.capacity {
		d.prev = d.cur
		d.cur = map[dupeKey]struct{}{}
		d.rotations++
	}
	d.cur[k] = struct{}{}
	return false
}

// Len returns the number of currently remembered keys.
func (d *DupeMap) Len() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.cur) + len(d.prev)
}

// Rotations returns how many times a full generation was evicted.
func (d *DupeMap) Rotations() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.rotations
}
