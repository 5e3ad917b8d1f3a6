package consensus

import (
	"errors"
	"fmt"
	"sort"

	"abdhfl/internal/tensor"
)

// PBFT is a practical-Byzantine-fault-tolerance-flavoured scalar consensus
// for model acceptance (the PBFT row of Table II): in each view, the view's
// primary proposes its model; every replica validates the proposal against
// its own data (prepare vote) and, on seeing a 2f+1 prepare quorum, commits.
// An insufficient quorum triggers a view change to the next primary. The
// first committed proposal is the agreed model. Byzantine replicas vote to
// reject honest proposals and accept malicious ones; Byzantine primaries'
// proposals are naturally rejected by honest validation.
//
// Compared to the validation-voting protocol, PBFT accepts a single
// proposal (no averaging) and pays ~2n^2 messages per view, so it is the
// heavyweight end of the CBA spectrum.
type PBFT struct {
	// F is the assumed fault bound; the commit quorum is 2f+1. Zero selects
	// floor((n-1)/3).
	F int
	// MinMargin is how far below the replica's best-scored proposal a
	// primary's proposal may score and still earn a prepare vote; zero
	// selects 0.1.
	MinMargin float64
}

// Name implements Protocol.
func (PBFT) Name() string { return "pbft" }

// Agree implements Protocol.
func (p PBFT) Agree(ctx *Context, proposals []tensor.Vector) (tensor.Vector, Stats, error) {
	return agree(p, ctx, proposals)
}

// AgreeInto implements Protocol.
func (p PBFT) AgreeInto(dst tensor.Vector, ctx *Context, proposals []tensor.Vector) (Stats, error) {
	if err := ctx.checkInto(dst, proposals); err != nil {
		return Stats{}, err
	}
	if ctx.Validator == nil {
		return Stats{}, errors.New("consensus: pbft requires a validator")
	}
	n := ctx.Members
	f := p.F
	if f == 0 {
		f = (n - 1) / 3
	}
	quorum := 2*f + 1
	if quorum > n {
		quorum = n
	}
	margin := p.MinMargin
	if margin == 0 {
		margin = 0.1
	}
	// Each replica's score table and its personal best, for relative
	// validation (as in the voting protocol).
	best := make([]float64, n)
	scores := make([][]float64, n)
	for r := 0; r < n; r++ {
		scores[r] = make([]float64, n)
		for i := range proposals {
			scores[r][i] = ctx.Validator(r, proposals[i])
			if scores[r][i] > best[r] {
				best[r] = scores[r][i]
			}
		}
	}
	var st Stats
	for view := 0; view < n; view++ {
		primary := view % n
		st.Rounds++
		// Pre-prepare: primary broadcasts its proposal (n-1 model
		// transfers); prepare + commit: two all-to-all scalar rounds.
		st.ModelTransfers += n - 1
		st.Messages += (n - 1) + 2*n*(n-1)
		prepares := 0
		for r := 0; r < n; r++ {
			vote := scores[r][primary] >= best[r]-margin
			if ctx.isByz(r) {
				vote = !vote
			}
			if vote {
				prepares++
			}
		}
		if prepares >= quorum {
			copy(dst, proposals[primary])
			return st, nil
		}
		st.Excluded = append(st.Excluded, primary)
	}
	sort.Ints(st.Excluded)
	return st, fmt.Errorf("consensus: pbft exhausted %d views without a commit quorum", n)
}
