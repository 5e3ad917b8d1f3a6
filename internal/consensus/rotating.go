package consensus

import (
	"errors"

	"abdhfl/internal/rng"
	"abdhfl/internal/tensor"
)

// CommitteeForRound derives the round's committee deterministically: a
// tendermint-DKG-style dealer rotates through the membership (round mod n)
// and is always seated; the remaining seats are drawn from the per-round
// sub-stream DeriveN("committee-rotation", round). DeriveN does not advance
// the parent stream, so any process — and any Workers setting — derives the
// identical committee for (seed, round), and committees for different rounds
// are independent draws rather than consecutive slices of one stream.
func CommitteeForRound(r *rng.RNG, round, n, size int) (dealer int, members []int) {
	if n <= 0 {
		return 0, nil
	}
	if size < 1 {
		size = 1
	}
	if size > n {
		size = n
	}
	dealer = ((round % n) + n) % n
	members = make([]int, 0, size)
	members = append(members, dealer)
	perm := r.DeriveN("committee-rotation", uint64(round)).Perm(n)
	for _, p := range perm {
		if len(members) == size {
			break
		}
		if p != dealer {
			members = append(members, p)
		}
	}
	return dealer, members
}

// RotatingCommittee is the committee consensus with per-round seat rotation:
// instead of one fresh uniform draw per instance (Committee), the committee
// for round R is a pure function of (seed, R) with a rotating dealer, so
// every member can predict — and audit — who scores this round, and a fixed
// adversary cannot park itself in the committee forever. Scoring and the
// keep rule are shared with Committee (committeeAgree).
type RotatingCommittee struct {
	// Size of the committee; zero selects ceil(n/2).
	Size int
	// KeepFraction of proposals retained; zero selects 0.5.
	KeepFraction float64
}

// Name implements Protocol.
func (RotatingCommittee) Name() string { return "rotating-committee" }

// Agree implements Protocol.
func (c RotatingCommittee) Agree(ctx *Context, proposals []tensor.Vector) (tensor.Vector, Stats, error) {
	return agree(c, ctx, proposals)
}

// AgreeInto implements Protocol.
func (c RotatingCommittee) AgreeInto(dst tensor.Vector, ctx *Context, proposals []tensor.Vector) (Stats, error) {
	if err := ctx.checkInto(dst, proposals); err != nil {
		return Stats{}, err
	}
	if ctx.Validator == nil {
		return Stats{}, errors.New("consensus: rotating committee requires a validator")
	}
	n := ctx.Members
	size := c.Size
	if size == 0 {
		size = (n + 1) / 2
	}
	if size > n {
		size = n
	}
	keep := c.KeepFraction
	if keep == 0 {
		keep = 0.5
	}
	_, committee := CommitteeForRound(ctx.Rand, ctx.Round, n, size)
	return committeeAgree(dst, ctx, proposals, committee, keep), nil
}
