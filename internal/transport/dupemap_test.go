package transport

import (
	"runtime"
	"testing"
)

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
