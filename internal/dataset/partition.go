package dataset

import (
	"fmt"
	"sort"

	"abdhfl/internal/rng"
)

// PartitionIID splits d into clients equally sized shards after a random
// shuffle, matching the paper's IID setting ("training samples for each
// label are shuffled and then distributed equally to all clients"). The
// final client absorbs the remainder.
func PartitionIID(r *rng.RNG, d *Dataset, clients int) []*Dataset {
	if clients <= 0 {
		panic("dataset: PartitionIID with non-positive client count")
	}
	n := d.Len()
	perm := r.Perm(n)
	per := n / clients
	if per == 0 {
		panic(fmt.Sprintf("dataset: %d samples cannot cover %d clients", n, clients))
	}
	out := make([]*Dataset, clients)
	for c := 0; c < clients; c++ {
		lo := c * per
		hi := lo + per
		if c == clients-1 {
			hi = n
		}
		out[c] = d.Subset(perm[lo:hi])
	}
	return out
}

// PartitionNonIID implements the paper's extreme non-IID setting: each
// client holds samples of exactly labelsPerClient labels (2 in the paper).
// Label pairs are assigned cyclically by client index — client i receives
// labels {(labelsPerClient*i) mod 10, ...} — so any run of
// ceil(NumClasses/labelsPerClient) consecutive clients jointly covers all
// ten labels. Because the Byzantine harness poisons a prefix of client ids,
// this realises the paper's "special design ... so that honest participants
// as a whole cover all ten labels" for every malicious proportion below 1.
func PartitionNonIID(r *rng.RNG, d *Dataset, clients, labelsPerClient int) []*Dataset {
	if clients <= 0 || labelsPerClient <= 0 || labelsPerClient > NumClasses {
		panic("dataset: PartitionNonIID invalid arguments")
	}
	// Bucket sample indices by label, shuffled within each bucket.
	byLabel := make([][]int, NumClasses)
	for i, y := range d.Y {
		byLabel[y] = append(byLabel[y], i)
	}
	for c := range byLabel {
		idx := byLabel[c]
		r.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
	}
	// Count how many clients want each label so buckets can be split evenly.
	demand := make([]int, NumClasses)
	labelsOf := make([][]int, clients)
	for c := 0; c < clients; c++ {
		ls := make([]int, labelsPerClient)
		for k := 0; k < labelsPerClient; k++ {
			l := (c*labelsPerClient + k) % NumClasses
			ls[k] = l
			demand[l]++
		}
		labelsOf[c] = ls
	}
	// Cursor into each label bucket; each client takes an equal slice of
	// every bucket it demands.
	cursor := make([]int, NumClasses)
	out := make([]*Dataset, clients)
	for c := 0; c < clients; c++ {
		var take []int
		for _, l := range labelsOf[c] {
			if demand[l] == 0 {
				continue
			}
			per := len(byLabel[l]) / demand[l]
			lo := cursor[l]
			hi := lo + per
			if hi > len(byLabel[l]) {
				hi = len(byLabel[l])
			}
			take = append(take, byLabel[l][lo:hi]...)
			cursor[l] = hi
		}
		if len(take) == 0 {
			panic(fmt.Sprintf("dataset: client %d received no samples", c))
		}
		out[c] = d.Subset(take)
	}
	return out
}

// PartitionDirichlet splits d across clients with per-client label
// proportions drawn from a symmetric Dirichlet(alpha) distribution; small
// alpha yields highly skewed clients, large alpha approaches IID. This is an
// extension beyond the paper's two settings, useful for robustness studies
// between the extremes.
func PartitionDirichlet(r *rng.RNG, d *Dataset, clients int, alpha float64) []*Dataset {
	if clients <= 0 || alpha <= 0 {
		panic("dataset: PartitionDirichlet invalid arguments")
	}
	byLabel := make([][]int, NumClasses)
	for i, y := range d.Y {
		byLabel[y] = append(byLabel[y], i)
	}
	take := make([][]int, clients)
	for l := 0; l < NumClasses; l++ {
		idx := byLabel[l]
		r.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		// Sample Dirichlet weights for this label across clients via
		// normalised Gamma(alpha) draws.
		w := make([]float64, clients)
		total := 0.0
		for c := range w {
			w[c] = gammaSample(r, alpha)
			total += w[c]
		}
		pos := 0
		for c := 0; c < clients; c++ {
			count := int(float64(len(idx)) * w[c] / total)
			if c == clients-1 {
				count = len(idx) - pos
			}
			take[c] = append(take[c], idx[pos:pos+count]...)
			pos += count
		}
	}
	out := make([]*Dataset, clients)
	for c := range out {
		sort.Ints(take[c])
		out[c] = d.Subset(take[c])
	}
	return out
}

// gammaSample draws from Gamma(shape, 1) using Marsaglia-Tsang for
// shape >= 1 and the boost transform for shape < 1.
func gammaSample(r *rng.RNG, shape float64) float64 {
	if shape < 1 {
		// Gamma(a) = Gamma(a+1) * U^(1/a)
		u := r.Float64()
		for u == 0 {
			u = r.Float64()
		}
		return gammaSample(r, shape+1) * pow(u, 1/shape)
	}
	d := shape - 1.0/3.0
	c := 1 / (3 * sqrt(d))
	for {
		x := r.NormFloat64()
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := r.Float64()
		if u == 0 {
			continue
		}
		if ln(u) < 0.5*x*x+d-d*v+d*ln(v) {
			return d * v
		}
	}
}
