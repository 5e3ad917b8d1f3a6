package core

import (
	"fmt"
	"time"

	"abdhfl/internal/codec"
	"abdhfl/internal/telemetry"
)

// Phase indices of the per-round timing histograms.
const (
	phaseTrain = iota
	phaseAggregate
	phaseEval
	numPhases
)

var phaseNames = [numPhases]string{"train", "aggregate", "eval"}

// instruments bundles what the round engines measure beyond the cluster
// step (whose filter and consensus metrics step.Observer owns): round and
// phase timings, accuracy, communication. Handles are resolved once at
// startup so the per-event cost is a single atomic operation. A nil
// *instruments (no registry configured) disables every recording; all
// methods are nil-receiver-safe.
type instruments struct {
	rounds    *telemetry.Counter
	roundDur  *telemetry.Histogram
	phases    [numPhases]*telemetry.Histogram
	accuracy  *telemetry.Gauge
	loss      *telemetry.Gauge
	transfers *telemetry.Counter
	scalars   *telemetry.Counter
	wireBytes *telemetry.Counter
}

// newInstruments registers the engine's metric families under the given
// engine label and publishes the codec's compression ratio at the run's
// model dimension: raw float64 bytes over wire bytes.
func newInstruments(reg *telemetry.Registry, engine string, c codec.Codec, dim int) *instruments {
	if reg == nil {
		return nil
	}
	label := func(name string) string {
		return fmt.Sprintf(`%s{engine=%q}`, name, engine)
	}
	ins := &instruments{
		rounds:    reg.Counter(label("abdhfl_rounds_total")),
		roundDur:  reg.Histogram(label("abdhfl_round_seconds"), nil),
		accuracy:  reg.Gauge(label("abdhfl_accuracy")),
		loss:      reg.Gauge(label("abdhfl_loss")),
		transfers: reg.Counter(label("abdhfl_comm_model_transfers_total")),
		scalars:   reg.Counter(label("abdhfl_comm_scalar_messages_total")),
		wireBytes: reg.Counter(label("abdhfl_codec_wire_bytes_total")),
	}
	reg.Gauge(label("abdhfl_codec_compression_ratio")).Set(float64(8*dim) / float64(c.WireBytes(dim)))
	for p := 0; p < numPhases; p++ {
		ins.phases[p] = reg.Histogram(
			fmt.Sprintf(`abdhfl_phase_seconds{engine=%q,phase=%q}`, engine, phaseNames[p]), nil)
	}
	return ins
}

// enabled reports whether recording (and its time.Now calls) should run.
func (ins *instruments) enabled() bool { return ins != nil }

func (ins *instruments) observePhase(p int, d time.Duration) {
	if ins != nil {
		ins.phases[p].Observe(d.Seconds())
	}
}

// roundDone records one completed round and its communication delta.
func (ins *instruments) roundDone(d time.Duration, delta CommStats) {
	if ins == nil {
		return
	}
	ins.rounds.Inc()
	ins.roundDur.Observe(d.Seconds())
	ins.transfers.Add(int64(delta.ModelTransfers))
	ins.scalars.Add(int64(delta.ScalarMessages))
	ins.wireBytes.Add(delta.WireBytes)
}

func (ins *instruments) evalDone(acc, loss float64) {
	if ins != nil {
		ins.accuracy.Set(acc)
		ins.loss.Set(loss)
	}
}
