package attack

import (
	"abdhfl/internal/dataset"
	"abdhfl/internal/nn"
)

// BackdoorSuccessRate measures a backdoor's efficacy against a trained
// model: the fraction of test samples whose true label differs from the
// trigger target but which the model classifies as the target once the
// trigger patch is stamped in. A clean model scores near the target class's
// base rate; a successfully backdoored model scores near 1.
func BackdoorSuccessRate(m *nn.Model, test *dataset.Dataset, bd BackdoorTrigger) float64 {
	triggered, total := 0, 0
	for i := range test.X {
		if test.Y[i] == bd.Target {
			continue // only count samples the trigger must actively flip
		}
		x := test.X[i].Clone()
		bd.Stamp(x)
		if m.Predict(x) == bd.Target {
			triggered++
		}
		total++
	}
	if total == 0 {
		return 0
	}
	return float64(triggered) / float64(total)
}
