// Package objective implements the three partitioning objectives of the
// paper (section 1), evaluated from the incremental statistics maintained by
// package partition:
//
//	Cut(P)  = sum over parts A of cut(A, V-A)
//	Ncut(P) = sum over parts A of cut(A, V-A) / assoc(A, V)
//	Mcut(P) = sum over parts A of cut(A, V-A) / W(A)
//
// where W(A) is the paper's ordered-pair internal weight (twice the unordered
// internal edge weight) and assoc(A, V) = cut(A, V-A) + W(A).
//
// Note the paper's Cut counts every crossing edge twice (once per side); the
// conventional "edge cut" is CrossingWeight = Cut/2. Table 1 is reproduced
// with the paper's convention.
package objective

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/partition"
)

// Objective selects one of the paper's three criteria.
type Objective int

const (
	// MCut is the Ding et al. min-max cut; the objective the paper's Air
	// Traffic Control application targets. It is the zero value, so every
	// options struct in this repository defaults to the paper's criterion.
	MCut Objective = iota
	// Cut is the minimum-cut criterion (sum over parts of cut(A, V-A)).
	Cut
	// NCut is the Shi-Malik normalized cut.
	NCut
)

// All lists the objectives in Table 1 column order.
var All = []Objective{Cut, NCut, MCut}

// String returns the paper's name for the objective.
func (o Objective) String() string {
	switch o {
	case Cut:
		return "Cut"
	case NCut:
		return "Ncut"
	case MCut:
		return "Mcut"
	}
	return fmt.Sprintf("Objective(%d)", int(o))
}

// Parse recognizes "cut", "ncut" and "mcut" (case-insensitive).
func Parse(s string) (Objective, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "cut":
		return Cut, nil
	case "ncut":
		return NCut, nil
	case "mcut":
		return MCut, nil
	}
	return 0, fmt.Errorf("objective: unknown objective %q (want cut, ncut or mcut)", s)
}

// Evaluate returns the exact objective value of p. Parts with zero internal
// weight but positive cut make Mcut +Inf (the mathematical value); search
// loops should use EvaluateSmoothed instead so such states stay comparable.
func (o Objective) Evaluate(p *partition.P) float64 {
	return o.eval(p, 0)
}

// EvaluateSmoothed is Evaluate with eps added to every Mcut/Ncut denominator,
// keeping degenerate states (singleton atoms, empty-interior parts) finite
// and ordered. eps should be small relative to typical part internal weight;
// fusion-fission uses a fraction of the mean weighted degree.
func (o Objective) EvaluateSmoothed(p *partition.P, eps float64) float64 {
	return o.eval(p, eps)
}

func (o Objective) eval(p *partition.P, eps float64) float64 {
	total := 0.0
	for a := 0; a < p.Capacity(); a++ {
		if p.PartSize(a) > 0 {
			total += o.Term(p.PartCut(a), p.PartInternalOrdered(a), eps)
		}
	}
	return total
}

// Term returns one part's contribution to the smoothed objective from its
// cut and ordered internal weight W(A): cut itself for Cut,
// cut/(cut+W+eps) for Ncut, cut/(W+eps) for Mcut — +Inf for the eps = 0
// Mcut degenerate state (positive cut, no internal weight), 0 for a part
// with nothing (so empty parts contribute nothing). This is the single
// source of truth for the per-part summand: Evaluate sums it over the
// non-empty parts in ascending order, and the incremental scoring layer
// (internal/score) caches it per part — the two agree bit-for-bit because
// they share this function.
func (o Objective) Term(cut, w, eps float64) float64 {
	switch o {
	case Cut:
		return cut
	case NCut:
		if d := cut + w + eps; d > 0 {
			return cut / d
		}
		return 0
	default: // MCut
		if d := w + eps; d > 0 {
			return cut / d
		}
		if cut > 0 {
			return math.Inf(1)
		}
		return 0
	}
}

// EvaluateAll returns all three objectives of p in Table 1 column order.
func EvaluateAll(p *partition.P) (cut, ncut, mcut float64) {
	return Cut.Evaluate(p), NCut.Evaluate(p), MCut.Evaluate(p)
}

// Imbalance returns max_A vw(A) / (totalVW / k) - 1 over the k non-empty
// parts: 0 means perfectly balanced, 0.05 means the heaviest part is 5% over
// the ideal share. Returns 0 for partitions with no parts.
func Imbalance(p *partition.P) float64 {
	parts := p.NonEmptyParts()
	if len(parts) == 0 {
		return 0
	}
	ideal := p.Graph().TotalVertexWeight() / float64(len(parts))
	maxW := 0.0
	for _, a := range parts {
		if w := p.PartVertexWeight(a); w > maxW {
			maxW = w
		}
	}
	return maxW/ideal - 1
}
