package simnet

import (
	"testing"

	"abdhfl/internal/rng"
)

// TestBandwidthChargesVolume: a Bandwidth-wrapped model delivers at
// base + volume/rate + per-message, exactly.
func TestBandwidthChargesVolume(t *testing.T) {
	s := New(Bandwidth{Base: Fixed(5), Rate: 100, PerMessage: 1}, rng.New(1))
	a := &echoNode{}
	s.Register(1, a)
	s.ScheduleAt(0, 1, func(ctx *Context) {
		ctx.SendVolume(1, "big", 1000) // 5 + 1000/100 + 1 = 16
		ctx.Send(1, "small")           // volume 1: 5 + 0.01 + 1
	})
	if _, err := s.Run(0); err != nil {
		t.Fatal(err)
	}
	if len(a.times) != 2 {
		t.Fatalf("got %d deliveries", len(a.times))
	}
	if a.times[0] != 6.01 || a.times[1] != 16 {
		t.Fatalf("delivery times = %v, want [6.01 16]", a.times)
	}
}

// TestBandwidthRngInvariance pins the property the Identity-codec golden
// tests rely on: the size term consumes no random bits, so changing payload
// volumes shifts delivery times by exactly the deterministic transmission
// delay without perturbing the latency draws.
func TestBandwidthRngInvariance(t *testing.T) {
	run := func(volume int64) []Time {
		s := New(Bandwidth{Base: Uniform{Min: 1, Max: 10}, Rate: 50}, rng.New(7))
		a := &echoNode{}
		s.Register(1, a)
		s.ScheduleAt(0, 1, func(ctx *Context) {
			for i := 0; i < 8; i++ {
				ctx.SendVolume(1, i, volume)
			}
		})
		if _, err := s.Run(0); err != nil {
			t.Fatal(err)
		}
		return a.times
	}
	small, large := run(0), run(500)
	if len(small) != len(large) {
		t.Fatal("delivery counts differ")
	}
	for i := range small {
		// 500/50 = +10 on the same latency draw, under the identical
		// float64 addition Sim.send performs.
		if large[i] != small[i]+10 {
			t.Fatalf("delivery %d: %v vs %v, want exact +10 shift", i, small[i], large[i])
		}
	}
}

// TestBandwidthComposesWithFaultDelay: Fate.ExtraDelay and the volume term
// add up on the same message.
func TestBandwidthComposesWithFaultDelay(t *testing.T) {
	s := New(Bandwidth{Base: Fixed(2), Rate: 10}, rng.New(3))
	s.Fault = FateFunc(func(_ *rng.RNG, _, _ NodeID, _ Time) Fate {
		return Fate{ExtraDelay: 7}
	})
	a := &echoNode{}
	s.Register(1, a)
	s.ScheduleAt(0, 1, func(ctx *Context) { ctx.SendVolume(1, "x", 40) })
	if _, err := s.Run(0); err != nil {
		t.Fatal(err)
	}
	if len(a.times) != 1 || a.times[0] != 13 { // 2 + 7 + 40/10
		t.Fatalf("delivery times = %v, want [13]", a.times)
	}
}

// TestBandwidthZeroRate: Rate <= 0 disables the volume term, leaving the
// base model untouched.
func TestBandwidthZeroRate(t *testing.T) {
	s := New(Bandwidth{Base: Fixed(4)}, rng.New(1))
	a := &echoNode{}
	s.Register(1, a)
	s.ScheduleAt(0, 1, func(ctx *Context) { ctx.SendVolume(1, "x", 1<<40) })
	if _, err := s.Run(0); err != nil {
		t.Fatal(err)
	}
	if a.times[0] != 4 {
		t.Fatalf("delivery time = %v, want 4", a.times[0])
	}
}
