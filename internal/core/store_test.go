package core

import (
	"math"
	"slices"
	"testing"

	"abdhfl/internal/freelist"
	"abdhfl/internal/nn"
	"abdhfl/internal/step"
	"abdhfl/internal/tensor"
)

// poisonStore takes 128 vectors of the dim of a model with hidden layers
// hidden out of the process store — what it held idle of that dim among
// them — NaN-fills them and puts them back, so that the next run borrows
// them first. A run that reads a borrowed vector before it overwrites it in
// full carries the NaN into what it reports.
func poisonStore(hidden []int) {
	dim := nn.NewShaped(step.ModelSizes(hidden)...).NumParams()
	vs := make([]tensor.Vector, 128)
	for i := range vs {
		vs[i] = tensor.Fill(step.Store.Take(dim), math.NaN())
	}
	step.Store.Put(vs...)
}

// TestStoreCannotLeakIntoResults holds the store's ownership rule on the
// round engines. Every pinned arm of RunHFL and RunVanilla, started on a
// store of NaN vectors, still gives its pins: each vector it borrows is
// overwritten before it is read. Under quarantine they give them too, and
// nothing they gave back is written again: each vector goes back after its
// last read. And a Result's FinalParams is the caller's: later runs in the
// process leave it bit for bit as it was.
func TestStoreCannotLeakIntoResults(t *testing.T) {
	for arm, pin := range hflPins {
		t.Run("hfl/"+pin.name, func(t *testing.T) { checkHFLPin(t, arm, true) })
	}
	for arm, pin := range vanillaPins {
		t.Run("vanilla/"+pin.name, func(t *testing.T) { checkVanillaPin(t, arm, true) })
	}
	t.Run("quarantine", func(t *testing.T) {
		end := freelist.Quarantine()
		t.Cleanup(func() {
			if !end() {
				t.Error("a vector or model was written, or given back again, after it went back to its free list")
			}
		})
		for arm := range hflPins {
			checkHFLPin(t, arm, false)
		}
		for arm := range vanillaPins {
			checkVanillaPin(t, arm, false)
		}
	})
	t.Run("final-params-kept", func(t *testing.T) {
		cfg := buildScenario(t, 3, 3, 4, 3, 40, 5)
		first, err := RunHFL(cfg)
		if err != nil {
			t.Fatal(err)
		}
		kept := slices.Clone(first.FinalParams)
		for seed := range uint64(3) {
			cfg.Seed = seed
			if _, err := RunHFL(cfg); err != nil {
				t.Fatal(err)
			}
			if _, err := RunVanilla(VanillaConfig{Rounds: 2, Local: cfg.Local, Rule: cfg.Partial, ClientData: cfg.ClientData, TestData: cfg.TestData, Seed: seed}); err != nil {
				t.Fatal(err)
			}
		}
		if !slices.EqualFunc(kept, first.FinalParams, func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }) {
			t.Error("a later run wrote an earlier run's FinalParams")
		}
	})
}
