package pipeline

import (
	"errors"
	"runtime"
	"testing"
	"time"

	"abdhfl/internal/codec"
	"abdhfl/internal/tensor"
)

// brokenCodec is Identity with an encoder that always fails.
type brokenCodec struct{ codec.Identity }

func (brokenCodec) EncodeInto([]byte, tensor.Vector, *codec.Scratch) (int, error) {
	return 0, errors.New("encoder blew up")
}

// TestRunLeavesNoGoroutines: Run owns its training goroutines — whichever
// way it returns, they have exited. The last arm has all 81 devices start at
// t = 0 and hand their jobs to a single worker before the loop joins the first
// of them: dispatch never blocks the loop.
func TestRunLeavesNoGoroutines(t *testing.T) {
	for _, tc := range []struct {
		name             string
		build            func(t *testing.T) Config
		wantErr, stepErr bool
	}{
		{"success", func(t *testing.T) Config { return buildConfig(t, 3, 2, 2, 3, 1, 0) }, false, false},
		{"drained-before-done", func(t *testing.T) Config {
			// A failed first step starves a full-quorum run: it drains.
			cfg := buildConfig(t, 3, 2, 2, 6, 1, 0)
			cfg.Partial.BRA = failingRule{cfg.Partial.BRA, new(int), 1}
			return cfg
		}, true, false},
		{"codec-error", func(t *testing.T) Config {
			cfg := buildConfig(t, 3, 2, 2, 3, 1, 0)
			cfg.Codec = brokenCodec{}
			return cfg
		}, true, false},
		{"step-error", func(t *testing.T) Config {
			cfg := buildConfig(t, 3, 2, 2, 4, 1, 0)
			cfg.Partial.BRA = failingRule{cfg.Partial.BRA, new(int), 3}
			cfg.Quorum = 0.5 // the parent proceeds on the sibling's partial
			return cfg
		}, false, true},
		{"81-devices-one-worker", func(t *testing.T) Config {
			cfg := buildConfig(t, 4, 3, 3, 2, 1, 0)
			cfg.Workers = 1
			return cfg
		}, false, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.build(t)
			before := runtime.NumGoroutine()
			res, err := Run(cfg)
			if (err != nil) != tc.wantErr {
				t.Fatalf("Run error = %v, want error %v", err, tc.wantErr)
			}
			if err == nil && (res.CompletedRounds != cfg.Rounds || (res.StepError != nil) != tc.stepErr) {
				t.Fatalf("completed %d of %d rounds, StepError = %v", res.CompletedRounds, cfg.Rounds, res.StepError)
			}
			// A goroutine that has called Done may not have left the
			// scheduler's count yet; give it a moment.
			deadline := time.Now().Add(2 * time.Second)
			for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			if after := runtime.NumGoroutine(); after > before {
				t.Fatalf("%d goroutines before Run, %d after", before, after)
			}
		})
	}
}
