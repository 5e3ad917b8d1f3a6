package transport

import (
	"reflect"
	"runtime"
	"testing"
	"time"
)

// The stall detector takes explicit times everywhere, so its timeout and
// backoff edges are pinned by tables — no wall-clock sleeps.
func TestStallDetectorDeadlines(t *testing.T) {
	t0 := time.Unix(1000, 0)
	sec := func(d float64) time.Duration { return time.Duration(d * float64(time.Second)) }

	cases := []struct {
		name      string
		base, max time.Duration
		backoff   float64
		strikes   int           // stalls already collected before the probed arm
		wantDelay time.Duration // deadline - arm time
	}{
		{name: "fresh", base: sec(1), backoff: 2, wantDelay: sec(1)},
		{name: "one-strike", base: sec(1), backoff: 2, strikes: 1, wantDelay: sec(2)},
		{name: "three-strikes", base: sec(1), backoff: 2, strikes: 3, wantDelay: sec(8)},
		{name: "capped", base: sec(1), backoff: 2, max: sec(5), strikes: 3, wantDelay: sec(5)},
		{name: "cap-below-base", base: sec(4), backoff: 2, max: sec(3), wantDelay: sec(3)},
		{name: "backoff-below-one-is-constant", base: sec(1), backoff: 0.5, strikes: 4, wantDelay: sec(1)},
		{name: "unit-backoff", base: sec(1), backoff: 1, strikes: 7, wantDelay: sec(1)},
		{name: "fractional-backoff", base: sec(1), backoff: 1.5, strikes: 2, wantDelay: sec(2.25)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := NewStallDetector(tc.base, tc.backoff, tc.max)
			now := t0
			s.Arm(1, now)
			// Each Stalled at the deadline collects one strike and re-arms
			// with the backed-off delay; after the loop the current deadline
			// reflects exactly tc.strikes strikes.
			for i := 0; i < tc.strikes; i++ {
				dl, ok := s.Deadline(1)
				if !ok {
					t.Fatalf("strike %d: peer not armed", i)
				}
				now = dl
				if got := s.Stalled(now); !reflect.DeepEqual(got, []NodeID{1}) {
					t.Fatalf("strike %d: Stalled = %v, want [1]", i, got)
				}
			}
			if s.Strikes(1) != tc.strikes {
				t.Fatalf("strikes = %d, want %d", s.Strikes(1), tc.strikes)
			}
			dl, ok := s.Deadline(1)
			if !ok {
				t.Fatal("peer not armed")
			}
			if got := dl.Sub(now); got != tc.wantDelay {
				t.Fatalf("delay after %d strikes = %v, want %v", tc.strikes, got, tc.wantDelay)
			}
		})
	}
}

func TestStallDetectorLifecycle(t *testing.T) {
	t0 := time.Unix(1000, 0)
	s := NewStallDetector(time.Second, 2, 0)

	// Nothing armed: nothing stalls.
	if got := s.Stalled(t0.Add(time.Hour)); got != nil {
		t.Fatalf("Stalled on empty detector = %v", got)
	}

	// An armed peer is quiet strictly before its deadline, stalled at it.
	s.Arm(1, t0)
	if got := s.Stalled(t0.Add(time.Second - time.Nanosecond)); got != nil {
		t.Fatalf("stalled before deadline: %v", got)
	}
	if got := s.Stalled(t0.Add(time.Second)); !reflect.DeepEqual(got, []NodeID{1}) {
		t.Fatalf("Stalled at deadline = %v, want [1]", got)
	}
	if s.Strikes(1) != 1 {
		t.Fatalf("strikes = %d, want 1", s.Strikes(1))
	}

	// Re-arming an armed peer keeps the original deadline.
	s.Arm(2, t0)
	dl1, _ := s.Deadline(2)
	s.Arm(2, t0.Add(500*time.Millisecond))
	dl2, _ := s.Deadline(2)
	if !dl1.Equal(dl2) {
		t.Fatalf("re-arm moved the deadline: %v -> %v", dl1, dl2)
	}

	// Heard disarms and resets strikes.
	s.Heard(1)
	if _, armed := s.Deadline(1); armed {
		t.Fatal("peer still armed after Heard")
	}
	if s.Strikes(1) != 0 {
		t.Fatalf("strikes after Heard = %d", s.Strikes(1))
	}
	s.Arm(1, t0)
	dl, _ := s.Deadline(1)
	if got := dl.Sub(t0); got != time.Second {
		t.Fatalf("delay after Heard reset = %v, want base", got)
	}

	// Multiple overdue peers report in ascending id order.
	s.Reset()
	for _, id := range []NodeID{5, 3, 9, 1} {
		s.Arm(id, t0)
	}
	if got := s.Stalled(t0.Add(2 * time.Second)); !reflect.DeepEqual(got, []NodeID{1, 3, 5, 9}) {
		t.Fatalf("Stalled order = %v", got)
	}
	if s.Total() < 4 {
		t.Fatalf("Total = %d, want >= 4", s.Total())
	}

	// Reset forgets everything.
	s.Reset()
	if got := s.Stalled(t0.Add(time.Hour)); got != nil {
		t.Fatalf("Stalled after Reset = %v", got)
	}
}

func TestDupeMapWindow(t *testing.T) {
	d := NewDupeMap(4)
	if d.Seen(1, 1) {
		t.Fatal("fresh key reported seen")
	}
	if !d.Seen(1, 1) {
		t.Fatal("repeat not suppressed")
	}
	if d.Seen(2, 1) {
		t.Fatal("same seq from a different sender collided")
	}

	// Fill past two generations: the earliest keys age out and are
	// accepted again; the freshest stay suppressed.
	for seq := uint64(2); seq <= 12; seq++ {
		d.Seen(1, seq)
	}
	if d.Rotations() < 2 {
		t.Fatalf("rotations = %d, want >= 2", d.Rotations())
	}
	if d.Seen(1, 1) {
		t.Fatal("key older than two generations still suppressed")
	}
	if !d.Seen(1, 12) {
		t.Fatal("freshest key forgotten")
	}
	if n := d.Len(); n > 8 {
		t.Fatalf("Len = %d, exceeds two generations of capacity 4", n)
	}
}

// TestDupeMapGrowsOnDemand pins the construction cost: a map built for the
// default 65 536-key window holds nothing until frames arrive. Pre-sizing
// it cost 3.4 MB per endpoint — 222 MB of a 65-endpoint cluster run that
// moved 680 frames.
func TestDupeMapGrowsOnDemand(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	d := NewDupeMap(0)
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<10 {
		t.Errorf("NewDupeMap allocated %d bytes, want under 1 KiB", got)
	}
	if d.Seen(1, 1) || !d.Seen(1, 1) || d.Len() != 1 {
		t.Error("an empty-built map does not record its first key")
	}
}

// TestDupeMapRetentionWindow is the window property at a toy capacity and
// at the default one: wherever in a generation a key lands, it is still
// suppressed after capacity−1 other inserts and accepted again after
// 2·capacity of them, with one rotation per capacity inserts.
func TestDupeMapRetentionWindow(t *testing.T) {
	for _, capacity := range []int{4, DefaultDupeCap} {
		for _, lead := range []int{0, 1, capacity - 1} {
			d := NewDupeMap(capacity)
			seq := uint64(0)
			others := func(n int) {
				for i := 0; i < n; i++ {
					seq++
					if d.Seen(7, seq) {
						t.Fatalf("cap %d: fresh key %d reported seen", capacity, seq)
					}
				}
			}
			others(lead)
			if d.Seen(9, 1) {
				t.Fatalf("cap %d lead %d: fresh key reported seen", capacity, lead)
			}
			others(capacity - 1)
			if !d.Seen(9, 1) {
				t.Errorf("cap %d lead %d: key forgotten after capacity-1 other inserts", capacity, lead)
			}
			others(capacity + 1)
			if want := int64((lead + 2*capacity) / capacity); d.Rotations() != want {
				t.Errorf("cap %d lead %d: %d rotations after %d inserts, want %d", capacity, lead, d.Rotations(), lead+1+2*capacity, want)
			}
			if d.Seen(9, 1) {
				t.Errorf("cap %d lead %d: key still suppressed after 2*capacity other inserts", capacity, lead)
			}
			if n := d.Len(); n > 2*capacity {
				t.Errorf("cap %d lead %d: Len = %d, exceeds two generations", capacity, lead, n)
			}
		}
	}
}
