package consensus

import (
	"testing"

	"abdhfl/internal/rng"
	"abdhfl/internal/tensor"
)

// detValidator is a deterministic, concurrency-safe validator: the score
// depends only on (member, model), like the engines' shard validators, so
// fan-out order cannot change any result.
func detValidator(member int, model tensor.Vector) float64 {
	s := 0.0
	for i, v := range model {
		s += v * float64((member+i)%7+1)
	}
	return s
}

func parallelProposals(n, dim int, seed uint64) []tensor.Vector {
	r := rng.New(seed)
	proposals := make([]tensor.Vector, n)
	for i := range proposals {
		p := tensor.NewVector(dim)
		for j := range p {
			p[j] = r.NormFloat64()
		}
		proposals[i] = p
	}
	return proposals
}

func sameStats(a, b Stats) bool {
	if a.Rounds != b.Rounds || a.Messages != b.Messages || a.ModelTransfers != b.ModelTransfers {
		return false
	}
	if len(a.Excluded) != len(b.Excluded) {
		return false
	}
	for i := range a.Excluded {
		if a.Excluded[i] != b.Excluded[i] {
			return false
		}
	}
	return true
}

// runProto runs p with a fresh context at the given worker count; contexts are
// rebuilt per run so Rand state cannot leak between comparisons.
func runProto(t *testing.T, p Protocol, workers int, proposals []tensor.Vector) (tensor.Vector, Stats) {
	t.Helper()
	ctx := &Context{
		Members:   len(proposals),
		Byzantine: map[int]bool{2: true},
		Validator: detValidator,
		Rand:      rng.New(99),
		Workers:   workers,
	}
	out, st, err := p.Agree(ctx, proposals)
	if err != nil {
		t.Fatalf("%s.Agree(workers=%d): %v", p.Name(), workers, err)
	}
	return out, st
}

// Serial and parallel consensus must be bit-identical: ballots and score rows
// are computed independently per member and reduced in member order. The 20
// proposals outgrow Voting's stack scratch.
func TestAgreeWorkerCountInvariance(t *testing.T) {
	for _, proposals := range [][]tensor.Vector{parallelProposals(9, 40, 7), parallelProposals(20, 40, 7)} {
		agreeWorkerCountInvariance(t, proposals)
	}
}

func agreeWorkerCountInvariance(t *testing.T, proposals []tensor.Vector) {
	for _, p := range []Protocol{Voting{}, Committee{}} {
		refOut, refStats := runProto(t, p, 1, proposals)
		for _, workers := range []int{0, 2, 4, 16} {
			out, st := runProto(t, p, workers, proposals)
			for i := range refOut {
				if out[i] != refOut[i] {
					t.Fatalf("%s: workers=%d output[%d] = %v, serial = %v",
						p.Name(), workers, i, out[i], refOut[i])
				}
			}
			if !sameStats(st, refStats) {
				t.Fatalf("%s: workers=%d stats %+v, serial %+v", p.Name(), workers, st, refStats)
			}
		}
	}
}
