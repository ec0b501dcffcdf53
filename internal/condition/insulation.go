package condition

import (
	"iabc/internal/graph"
	"iabc/internal/nodeset"
)

// insulationScratch is the exact checker's hot-path workspace. The insulated
// test of Definition 1 needs, for every member v of a candidate set L,
// |N⁻_v ∩ (ground−L)|. The retained reference isInsulated materializes
// ground−L per candidate — an allocation plus a full set difference for
// every one of the 2^|W| candidates. The scratch instead caches
//
//	base[v] = |N⁻_v ∩ ground|
//
// once per fault set (the ground set is fixed across the whole candidate
// enumeration) and evaluates |N⁻_v ∩ (ground−L)| = base[v] − |N⁻_v ∩ L|
// with a single word-parallel intersection count per member — no set
// algebra, no allocation.
//
// A counter-per-node variant maintained through enumeration add/remove
// hooks (nodeset.SubsetsAscendingSizeHooked) was measured too: with the
// exact checker capped at n−f ≤ 62, every set is one machine word, so the
// fused popcount beats paying O(out-degree) per enumeration transition by
// ~2× on the condition benchmarks. One scratch serves one goroutine; each
// ShardScanner owns its own.
type insulationScratch struct {
	g    *graph.Graph
	base []int
	// peel state for maximalInsulated.
	cntS  []int
	queue []int
	// dead memoizes maximal insulated subsets that peeled to ∅: it holds
	// candidates L (of the current ground) for which the maximal insulated
	// subset of ground−L was computed and found empty. Because that subset
	// is monotone in its sub argument (every insulated subset of a smaller
	// sub is an insulated subset of the larger one), any later candidate
	// L' ⊇ L has an empty complement too, and its peel is skipped — a memo
	// hit. Dominated entries are never stored (a superset of a stored entry
	// is already a hit), and the table is capped at deadCap to bound the
	// subset scans.
	//
	// The memo is valid only relative to the current ground: insulation
	// w.r.t. a smaller ground is a weaker property, so an empty result under
	// one ground proves nothing under another — the fault-set enumeration
	// visits shrinking grounds, which is exactly the unsound direction.
	// setGround therefore clears the table; what persists across fault sets
	// is the storage and the accumulated hit count, not the entries.
	dead []nodeset.Set
}

// deadCap bounds the empty-complement memo. Entries beyond the cap are
// dropped (losing potential hits, never correctness); 64 single-word subset
// tests cost less than one O(edges) peel, so the scan stays profitable.
const deadCap = 64

func newInsulationScratch(g *graph.Graph) *insulationScratch {
	n := g.N()
	return &insulationScratch{
		g:     g,
		base:  make([]int, n),
		cntS:  make([]int, n),
		queue: make([]int, 0, n),
	}
}

// setGround prepares the scratch for candidate enumeration over a new
// ground set.
func (s *insulationScratch) setGround(ground nodeset.Set) {
	ground.ForEach(func(v int) bool {
		s.base[v] = s.g.CountInFrom(v, ground)
		return true
	})
	s.dead = s.dead[:0]
}

// knownDead reports whether some memoized candidate is a subset of l —
// proving, by monotonicity, that the maximal insulated subset of ground−l
// is empty without peeling it.
func (s *insulationScratch) knownDead(l nodeset.Set) bool {
	for _, d := range s.dead {
		if d.SubsetOf(l) {
			return true
		}
	}
	return false
}

// recordDead memoizes a candidate whose complement peeled to ∅. Candidates
// arrive in ascending size, so no new entry can strictly dominate a stored
// one; knownDead screens out the supersets before they get here.
func (s *insulationScratch) recordDead(l nodeset.Set) {
	if len(s.dead) >= deadCap {
		return
	}
	s.dead = append(s.dead, l.Clone())
}

// insulated reports whether every node of the current candidate l has at
// most threshold−1 in-neighbors in ground−l, using the cached ground
// counts. Result-identical to the reference isInsulated.
func (s *insulationScratch) insulated(l nodeset.Set, threshold int) bool {
	ok := true
	l.ForEach(func(v int) bool {
		if s.base[v]-s.g.CountInFrom(v, l) >= threshold {
			ok = false
			return false
		}
		return true
	})
	return ok
}

// maximalInsulated returns the unique maximal subset of sub that is
// insulated with respect to ground, by worklist peeling over the cached
// counts: a node joins the removal queue the moment its in-degree from
// outside the shrinking set reaches threshold. The fixpoint is the same as
// the reference maximalInsulatedSubset's (the maximal insulated subset is
// unique, so removal order is immaterial), at O(edges) instead of
// O(iterations · n · words).
func (s *insulationScratch) maximalInsulated(ground, sub nodeset.Set, threshold int) nodeset.Set {
	res := sub.Clone()
	q := s.queue[:0]
	res.ForEach(func(v int) bool {
		s.cntS[v] = s.g.CountInFrom(v, res)
		return true
	})
	res.ForEach(func(v int) bool {
		if s.base[v]-s.cntS[v] >= threshold {
			q = append(q, v)
		}
		return true
	})
	for len(q) > 0 {
		u := q[len(q)-1]
		q = q[:len(q)-1]
		if !res.Contains(u) {
			continue
		}
		res.Remove(u)
		for _, w := range s.g.OutView(u) {
			if !res.Contains(w) {
				continue
			}
			s.cntS[w]--
			if s.base[w]-s.cntS[w] == threshold {
				q = append(q, w)
			}
		}
	}
	s.queue = q[:0]
	return res
}
