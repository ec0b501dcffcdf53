package condition

// This file holds the scan's symmetry reduction. Theorem 1 quantifies over
// partitions of V alone, so a graph automorphism σ maps violating
// partitions onto violating partitions: F violates iff σ(F) does. The
// scanner detects the rotations i ↦ i+s and reflections i ↦ s−i (mod n)
// that map every edge onto an edge — the circulant symmetry of the paper's
// chord networks — and skips a fault set F whenever one of them maps F to a
// lexicographically smaller sorted set of the same size, which is a lower
// rank of the canonical enumeration.
//
// The reduction is exact. If the lowest violating fault set F were
// skipped, its lower-ranked image σ(F) would be a lower violation, so F is
// always scanned: Satisfied, Witness and FaultSetsExamined equal the
// unreduced scan's. A skipped fault set is journaled as satisfied with a
// zero counter delta, so the work counters count the work done on
// canonical fault sets only — still a pure function of (G, F, threshold),
// which is what checkpoints and leases rest on.

import (
	"slices"

	"iabc/internal/graph"
)

// automorphism is the label permutation i ↦ i+shift or, with reflect,
// i ↦ shift−i, both mod n.
type automorphism struct {
	shift   int
	reflect bool
}

func (a automorphism) apply(v, n int) int {
	if a.reflect {
		return (a.shift - v + n) % n
	}
	return (v + a.shift) % n
}

// symmetries returns g's non-identity rotations, then its reflections: the
// candidates among them that map every edge onto an edge. Reflections are
// tried only for n ≥ 3; below that each one is a rotation or the identity.
func symmetries(g *graph.Graph) []automorphism {
	n := g.N()
	auts := make([]automorphism, 0, 2*n-1)
	for s := 1; s < n; s++ {
		if a := (automorphism{shift: s}); preservesEdges(g, a) {
			auts = append(auts, a)
		}
	}
	for s := 0; s < n && n >= 3; s++ {
		if a := (automorphism{shift: s, reflect: true}); preservesEdges(g, a) {
			auts = append(auts, a)
		}
	}
	return auts
}

// preservesEdges reports whether a maps every edge of g onto an edge. A
// permutation that does is an automorphism: it maps the finite edge set
// injectively into itself.
func preservesEdges(g *graph.Graph, a automorphism) bool {
	n := g.N()
	for u := 0; u < n; u++ {
		au := a.apply(u, n)
		for _, v := range g.OutView(u) {
			if !g.HasEdge(au, a.apply(v, n)) {
				return false
			}
		}
	}
	return true
}

// canonical reports whether no automorphism maps the cursor's fault set to
// a lexicographically smaller one. Each image is insertion-sorted into the
// scanner's img buffer, so the test allocates nothing.
func (s *ShardScanner) canonical() bool {
	n := s.g.N()
	img := s.img[:len(s.comb)]
	for _, a := range s.auts {
		for j, v := range s.comb {
			x, i := a.apply(v, n), j
			for ; i > 0 && img[i-1] > x; i-- {
				img[i] = img[i-1]
			}
			img[i] = x
		}
		if slices.Compare(img, s.comb) < 0 {
			return false
		}
	}
	return true
}
