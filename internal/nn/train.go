package nn

import (
	"abdhfl/internal/dataset"
	"abdhfl/internal/rng"
	"abdhfl/internal/tensor"
)

// TrainConfig controls local SGD training.
type TrainConfig struct {
	LearningRate float64
	BatchSize    int
	Iterations   int // number of minibatch SGD steps (the paper's T)
	// Momentum is the classical momentum coefficient (0 = plain SGD).
	Momentum float64
	// WeightDecay is the L2 regularisation coefficient added to gradients.
	WeightDecay float64
}

// DefaultTrain is the local-training configuration used by the experiments:
// the paper's 5 local iterations with a conventional minibatch size.
func DefaultTrain() TrainConfig {
	return TrainConfig{LearningRate: 0.1, BatchSize: 32, Iterations: 5}
}

// SGD performs cfg.Iterations minibatch SGD steps on m over d, sampling
// batches from r. It returns the mean loss across all processed samples.
// When d has fewer samples than the batch size, the whole dataset is used as
// one batch. It allocates a transient workspace per call; workers that train
// many devices should hold a Workspace and use SGDWS.
func SGD(m *Model, d *dataset.Dataset, cfg TrainConfig, r *rng.RNG) float64 {
	return SGDWS(m, NewWorkspace(m), d, cfg, r)
}

// SGDWS is SGD with caller-provided scratch: gradient and momentum
// accumulators live in ws, so a worker looping over devices performs the
// whole optimisation without allocating. It produces bit-identical results
// to SGD.
func SGDWS(m *Model, ws *Workspace, d *dataset.Dataset, cfg TrainConfig, r *rng.RNG) float64 {
	if d.Len() == 0 {
		return 0
	}
	batch := cfg.BatchSize
	if batch > d.Len() {
		batch = d.Len()
	}
	g := ws.gradsFor(m)
	var vel *Grads
	if cfg.Momentum > 0 {
		vel = ws.velFor(m)
	}
	totalLoss := 0.0
	samples := 0
	var xs [tile]tensor.Vector
	var ys [tile]int
	for it := 0; it < cfg.Iterations; it++ {
		g.Zero()
		for b := 0; b < batch; {
			// Draw a tile of samples, in the order a per-sample loop would.
			n := 0
			for ; n < tile && b < batch; n, b = n+1, b+1 {
				i := r.Intn(d.Len())
				xs[n], ys[n] = d.X[i], d.Y[i]
			}
			m.backwardTile(ws, g, xs[:n], ys[:n])
			for _, l := range ws.loss[:n] {
				totalLoss += l
			}
			samples += n
		}
		if cfg.WeightDecay > 0 {
			// L2 regularisation: grad += wd * batch * params (scaled so the
			// per-sample averaging in Step leaves wd*params).
			s := cfg.WeightDecay * float64(batch)
			for l := range g.Weights {
				tensor.Axpy(tensor.Vector(g.Weights[l].Data), s, tensor.Vector(m.Weights[l].Data))
				tensor.Axpy(g.Biases[l], s, m.Biases[l])
			}
		}
		if vel != nil {
			// Classical momentum: v <- mu*v + g; step with v.
			for l := range vel.Weights {
				tensor.Scale(tensor.Vector(vel.Weights[l].Data), cfg.Momentum, tensor.Vector(vel.Weights[l].Data))
				tensor.Axpy(tensor.Vector(vel.Weights[l].Data), 1, tensor.Vector(g.Weights[l].Data))
				tensor.Scale(vel.Biases[l], cfg.Momentum, vel.Biases[l])
				tensor.Axpy(vel.Biases[l], 1, g.Biases[l])
			}
			m.Step(vel, cfg.LearningRate, batch)
		} else {
			m.Step(g, cfg.LearningRate, batch)
		}
	}
	if samples == 0 {
		return 0
	}
	return totalLoss / float64(samples)
}
