package pipeline

import (
	"sync"

	"abdhfl/internal/nn"
	"abdhfl/internal/tensor"
)

// trainJob is one device's local training for one round, dispatched when the
// device starts (virtual time) and joined at its finish timer. Training is a
// pure function of the job: the SGD stream is label-derived, start is a sent
// — hence immutable — model vector, and the shard is read-only. Everything
// here is written before the dispatch send; a worker touches nothing else of
// the engine, and the loop touches buf again only after the join.
type trainJob struct {
	d     *deviceActor
	round int
	start tensor.Vector
	buf   tensor.Vector // the upload vector to fill (engine.take)
}

// trainPool runs local SGD off the event loop on a fixed set of goroutines,
// each borrowing one model and workspace from the store for the run (Workspace re-zeroes momentum per call,
// so sharing them across devices is bit-identical to one pair per device).
type trainPool struct {
	jobs chan trainJob
	wg   sync.WaitGroup
}

// startTraining starts the workers. jobs holds one slot per device: a device
// has at most one training in flight, so dispatch never blocks the loop.
func (e *engine) startTraining(workers, devices int) {
	e.pool.jobs = make(chan trainJob, devices)
	for w := 0; w < min(workers, devices); w++ {
		e.pool.wg.Add(1)
		go func() {
			defer e.pool.wg.Done()
			sc := e.models.Get()
			defer e.models.Put(sc)
			m, ws := sc.Model, sc.WS
			for j := range e.pool.jobs {
				m.SetParams(j.start)
				// The SGD stream is derived exactly as in core.RunHFL (root ->
				// "round-R" -> "device-D"), so a zero-latency, zero-fault
				// pipeline run is bit-identical to it on the same seed.
				r := e.root.DeriveDecimal("round-", j.round).DeriveDecimal("device-", j.d.id)
				nn.SGDWS(m, ws, e.cfg.ClientData[j.d.id], e.cfg.Local, r)
				j.d.trained <- m.ParamsInto(j.buf)
			}
		}()
	}
}

// stopTraining closes the queue and waits for the workers to exit; a result
// nobody joins stays in its device's one-slot channel, so none is stuck
// sending, and giveBack takes it from there.
func (e *engine) stopTraining() {
	close(e.pool.jobs)
	e.pool.wg.Wait()
}
