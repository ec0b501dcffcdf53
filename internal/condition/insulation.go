package condition

import (
	"math/bits"

	"iabc/internal/graph"
	"iabc/internal/nodeset"
)

// maxKernelNodes is the exact scan's order limit: the kernel keeps every
// node set of the scan in one machine word.
const maxKernelNodes = 64

// insulationKernel is the exact checker's hot path: the candidate-L
// enumeration, the insulated test and the maximal-insulated peel of one
// fault set's ground, on single-word node sets. Bit v of a mask is node v,
// so intersections are ANDs and set sizes are bits.OnesCount64; the scan
// domain (n ≤ 64, see scanExtent) is what lets every set fit one word.
//
// The insulated test of Definition 1 needs, for every member v of a
// candidate set L, |N⁻_v ∩ (ground−L)|. The kernel caches
//
//	base[v] = |N⁻_v ∩ ground|
//
// once per fault set (the ground is fixed across the whole candidate
// enumeration) and evaluates |N⁻_v ∩ (ground−L)| = base[v] − |N⁻_v ∩ L| as
// one AND and one popcount per member. All state lives in fixed arrays
// sized to the word, so a fault set's search allocates nothing; only a
// violation converts its masks into the nodeset.Set fields of a Witness.
//
// One kernel serves one goroutine; each ShardScanner owns its own.
type insulationKernel struct {
	// inMask[v] is N⁻_v and outMask[v] is N⁺_v, fixed per graph.
	inMask  [maxKernelNodes]uint64
	outMask [maxKernelNodes]uint64
	// ground is the current fault set's V−F; base[v] is |N⁻_v ∩ ground|
	// for v in ground.
	ground uint64
	base   [maxKernelNodes]int
	// The candidate enumeration of one size class k: the admitted ground
	// members as single-bit masks in ascending node order, and their union.
	pool     [maxKernelNodes]uint64
	npool    int
	poolMask uint64
	// Peel state for maximalInsulated: each node is queued at most once
	// (see there), so the queue never outgrows the word.
	cntS  [maxKernelNodes]int
	queue [maxKernelNodes]int
	// dead memoizes maximal insulated subsets that peeled to ∅: it holds
	// candidates L (of the current ground) for which the maximal insulated
	// subset of ground−L was computed and found empty. Because that subset
	// is monotone in its sub argument (every insulated subset of a smaller
	// sub is an insulated subset of the larger one), any later candidate
	// L' ⊇ L has an empty complement too, and its peel is skipped — a memo
	// hit. Dominated entries are never stored (a superset of a stored entry
	// is already a hit), and the table is capped at deadCap to bound the
	// subset tests.
	//
	// The memo is valid only relative to the current ground: insulation
	// w.r.t. a smaller ground is a weaker property, so an empty result under
	// one ground proves nothing under another — the fault-set enumeration
	// visits shrinking grounds, which is exactly the unsound direction.
	// setGround therefore clears the table.
	dead  [deadCap]uint64
	ndead int
}

// deadCap bounds the empty-complement memo. Entries beyond the cap are
// dropped (losing potential hits, never correctness); 64 single-word subset
// tests cost less than one O(edges) peel, so the scan stays profitable.
const deadCap = 64

// newInsulationKernel precomputes g's neighbourhood masks. g must have at
// most maxKernelNodes nodes.
func newInsulationKernel(g *graph.Graph) *insulationKernel {
	s := &insulationKernel{}
	for v := 0; v < g.N(); v++ {
		for _, u := range g.InView(v) {
			s.inMask[v] |= 1 << uint(u)
			s.outMask[u] |= 1 << uint(v)
		}
	}
	return s
}

// universeMask is the mask of nodes 0..n−1, n ≤ 64 (a shift by 64 is 0 in
// Go, so n = 64 yields the full word).
func universeMask(n int) uint64 { return 1<<uint(n) - 1 }

// maskSet converts a kernel mask to a nodeset.Set of capacity n.
func maskSet(n int, m uint64) nodeset.Set {
	s := nodeset.New(n)
	for ; m != 0; m &= m - 1 {
		s.Add(bits.TrailingZeros64(m))
	}
	return s
}

// setGround prepares the kernel for candidate enumeration over a new
// ground set.
func (s *insulationKernel) setGround(ground uint64) {
	s.ground = ground
	for x := ground; x != 0; x &= x - 1 {
		v := bits.TrailingZeros64(x)
		s.base[v] = bits.OnesCount64(s.inMask[v] & ground)
	}
	s.ndead = 0
}

// admit opens size class k of the candidate enumeration: it keeps the
// ground members v with base[v] < threshold+k−1 — the degree bound (see
// findDisjointInsulatedPair) — in ascending order, and charges c with the
// candidates the rejected members remove, C(m,k) − C(kept,k) for a ground
// of m members. Grounds beyond the binom table (m > 62, possible while
// n−f ≤ 62 when |F| < f) are left out of the pruned account, whose sum
// over all sizes would pass 2^63 at m = 64. admit reports whether the pool
// has k members to choose from.
func (s *insulationKernel) admit(m, k, threshold int, c *checkCounters) bool {
	s.npool, s.poolMask = 0, 0
	for x := s.ground; x != 0; x &= x - 1 {
		if s.base[bits.TrailingZeros64(x)] < threshold+k-1 {
			s.pool[s.npool] = x & -x
			s.poolMask |= x & -x
			s.npool++
		}
	}
	if m <= 62 {
		skipped := binom(m, k) - binom(s.npool, k)
		c.candidates += skipped
		c.pruned += skipped
	}
	return k <= s.npool
}

// search visits, in lexicographic order of pool indexes, the candidates
// prefix ∪ S of the open size class for every subset S of left ≥ 1 pool
// members at indexes from on. It counts each candidate in c, tests it, and
// returns the first candidate L whose complement holds a non-empty maximal
// insulated subset R, or l = 0.
//
// Two bounds skip candidates wholesale, all of them non-insulated, so the
// insulated candidates are visited in the same order as one by one and the
// memo, the witness and every counter are unchanged:
//
//   - Subtree bound. Extend the prefix by a pool member to P, leaving a
//     members to add from the pool members above it, rest. A member v of P
//     has base[v] − |N⁻_v ∩ P| in-neighbours outside P, of which only
//     threshold−1 may stay outside an insulated L; the excess must come
//     from the members still to add, at most min(a, |N⁻_v ∩ rest|) of them.
//     If it cannot, no candidate below P is insulated, and all C(|rest|, a)
//     of them are counted unvisited.
//   - Last member. With one member left to add, only the prefix's
//     completions can make an insulated candidate; the others are counted
//     in bulk.
func (s *insulationKernel) search(prefix uint64, left, from, threshold int, c *checkCounters) (l, r uint64) {
	if left == 1 {
		tail := s.poolMask &^ (s.pool[from] - 1)
		for x := tail & s.completions(prefix, threshold); x != 0; x &= x - 1 {
			u := bits.TrailingZeros64(x)
			l := prefix | 1<<uint(u)
			if s.base[u]-bits.OnesCount64(s.inMask[u]&l) >= threshold {
				continue
			}
			if s.knownDead(l) {
				c.memoHits++
				continue
			}
			if r := s.maximalInsulated(s.ground&^l, threshold); r != 0 {
				// Count the candidates up to and including l.
				c.count(int64(bits.OnesCount64(tail & (2<<uint(u) - 1))))
				return l, r
			}
			s.recordDead(l)
		}
		c.count(int64(bits.OnesCount64(tail)))
		return 0, 0
	}
	for i := from; i <= s.npool-left; i++ {
		p := prefix | s.pool[i]
		rest := s.poolMask &^ (s.pool[i]<<1 - 1)
		if !s.completable(p, rest, left-1, threshold) {
			c.count(choose(bits.OnesCount64(rest), left-1))
			continue
		}
		if l, r := s.search(p, left-1, i+1, threshold, c); l != 0 {
			return l, r
		}
	}
	return 0, 0
}

// completable reports whether adding some add ≥ 1 members of rest could
// leave every member of prefix insulated (the subtree bound of search).
func (s *insulationKernel) completable(prefix, rest uint64, add, threshold int) bool {
	for x := prefix; x != 0; x &= x - 1 {
		v := bits.TrailingZeros64(x)
		excess := s.base[v] - bits.OnesCount64(s.inMask[v]&prefix) - threshold + 1
		if excess > add || excess > bits.OnesCount64(s.inMask[v]&rest) {
			return false
		}
	}
	return true
}

// completions returns the nodes u for which every member of prefix stays
// insulated in prefix ∪ {u}. A member v has base[v] − |N⁻_v ∩ prefix|
// in-neighbours in ground − prefix, at most threshold−1 of which may stay
// outside: if exactly one too many, u must be an in-neighbour of v; if
// more, no one-node completion exists and the mask is empty.
func (s *insulationKernel) completions(prefix uint64, threshold int) uint64 {
	ok := ^uint64(0)
	for x := prefix; x != 0; x &= x - 1 {
		v := bits.TrailingZeros64(x)
		switch excess := s.base[v] - bits.OnesCount64(s.inMask[v]&prefix) - threshold + 1; {
		case excess == 1:
			ok &= s.inMask[v]
		case excess > 1:
			return 0
		}
	}
	return ok
}

// knownDead reports whether some memoized candidate is a subset of l —
// proving, by monotonicity, that the maximal insulated subset of ground−l
// is empty without peeling it.
func (s *insulationKernel) knownDead(l uint64) bool {
	for _, d := range s.dead[:s.ndead] {
		if d&^l == 0 {
			return true
		}
	}
	return false
}

// recordDead memoizes a candidate whose complement peeled to ∅. Candidates
// arrive in ascending size, so no new entry can strictly dominate a stored
// one; knownDead screens out the supersets before they get here.
func (s *insulationKernel) recordDead(l uint64) {
	if s.ndead < deadCap {
		s.dead[s.ndead] = l
		s.ndead++
	}
}

// maximalInsulated returns the unique maximal subset of sub that is
// insulated with respect to the ground, by worklist peeling over the
// cached counts: a node joins the removal queue the moment its in-degree
// from outside the shrinking set reaches threshold. That happens at most
// once per node — the in-degree from outside only grows — so the queue
// holds at most one entry per node. The fixpoint is the same as the
// reference maximalInsulatedSubset's (the maximal insulated subset is
// unique, so removal order is immaterial), at O(edges) word operations.
func (s *insulationKernel) maximalInsulated(sub uint64, threshold int) uint64 {
	res, q := sub, 0
	for x := res; x != 0; x &= x - 1 {
		v := bits.TrailingZeros64(x)
		s.cntS[v] = bits.OnesCount64(s.inMask[v] & res)
		if s.base[v]-s.cntS[v] >= threshold {
			s.queue[q] = v
			q++
		}
	}
	for q > 0 {
		q--
		u := s.queue[q]
		res &^= 1 << uint(u)
		for x := s.outMask[u] & res; x != 0; x &= x - 1 {
			w := bits.TrailingZeros64(x)
			s.cntS[w]--
			if s.base[w]-s.cntS[w] == threshold {
				s.queue[q] = w
				q++
			}
		}
	}
	return res
}
