package condition

import (
	"math"
	"math/bits"
	"math/rand"
	"testing"

	"iabc/internal/graph"
	"iabc/internal/nodeset"
	"iabc/internal/topology"
)

// maskOf converts a nodeset.Set of capacity ≤ 64 to a kernel mask.
func maskOf(s nodeset.Set) uint64 {
	var m uint64
	s.ForEach(func(v int) bool {
		m |= 1 << uint(v)
		return true
	})
	return m
}

// randomGround returns V minus about a fifth of its nodes, keeping at
// least two.
func randomGround(n int, rng *rand.Rand) nodeset.Set {
	ground := nodeset.Universe(n)
	for i := 0; i < n; i++ {
		if rng.Intn(5) == 0 && ground.Count() > 2 {
			ground.Remove(i)
		}
	}
	return ground
}

// kernelInsulated is the kernel's insulated test of candidate l as the
// scan applies it: l's highest member u must be a completion of the prefix
// of the others and have at most threshold−1 in-neighbours outside l.
func kernelInsulated(s *insulationKernel, l uint64, threshold int) bool {
	u := 63 - bits.LeadingZeros64(l)
	return s.completions(l&^(1<<uint(u)), threshold)&(1<<uint(u)) != 0 &&
		s.base[u]-bits.OnesCount64(s.inMask[u]&l) < threshold
}

// TestInsulationKernelMatchesReference cross-checks the kernel's insulated
// test, maximal-insulated peel and empty-complement memo against the
// retained nodeset reference implementations, over random graphs, ground
// sets, and candidate enumerations — exactly the access pattern the checker
// uses — and on sampled candidates of 64-node graphs, where bit 63 is a
// node. It also checks the soundness of search's subtree bound: for every
// insulated candidate, each of its lowest-member prefixes is completable
// by the rest of the candidate.
func TestInsulationKernelMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	check := func(trial int, g *graph.Graph, kernel *insulationKernel, ground, l nodeset.Set, threshold int) {
		t.Helper()
		lm := maskOf(l)
		gotIns := kernelInsulated(kernel, lm, threshold)
		wantIns := isInsulated(g, ground, l, threshold)
		if gotIns != wantIns {
			t.Fatalf("trial %d: insulated(%v) = %v, reference %v (ground %v, th %d)",
				trial, l, gotIns, wantIns, ground, threshold)
		}
		if wantIns {
			var prefix uint64
			for x := lm; x&(x-1) != 0; x &= x - 1 {
				prefix |= x & -x
				hi := 63 - bits.LeadingZeros64(prefix)
				rest := maskOf(ground) &^ (2<<uint(hi) - 1)
				if !kernel.completable(prefix, rest, bits.OnesCount64(lm&^prefix), threshold) {
					t.Fatalf("trial %d: prefix %x of insulated %v judged not completable", trial, prefix, l)
				}
			}
		}
		rest := ground.Difference(l)
		got := maskSet(g.N(), kernel.maximalInsulated(maskOf(rest), threshold))
		want := maximalInsulatedSubset(g, ground, rest, threshold)
		if !got.Equal(want) {
			t.Fatalf("trial %d: maximalInsulated(%v) = %v, reference %v",
				trial, rest, got, want)
		}
	}
	for trial := 0; trial < 120; trial++ {
		n := 3 + rng.Intn(8)
		g, err := topology.RandomDigraph(n, 0.2+0.6*rng.Float64(), rng)
		if err != nil {
			t.Fatal(err)
		}
		ground := randomGround(n, rng)
		threshold := 1 + rng.Intn(3)
		kernel := newInsulationKernel(g)
		kernel.setGround(maskOf(ground))

		var recorded []nodeset.Set
		nodeset.SubsetsAscendingSize(ground, 1, ground.Count()/2, func(l nodeset.Set) bool {
			check(trial, g, kernel, ground, l, threshold)
			wantDead := false
			for _, d := range recorded {
				wantDead = wantDead || d.SubsetOf(l)
			}
			if got := kernel.knownDead(maskOf(l)); got != wantDead {
				t.Fatalf("trial %d: knownDead(%v) = %v, want %v (memo %v)", trial, l, got, wantDead, recorded)
			}
			if !wantDead && rng.Intn(4) == 0 && len(recorded) < deadCap {
				kernel.recordDead(maskOf(l))
				recorded = append(recorded, l.Clone())
			}
			return true
		})
	}
	for trial := 0; trial < 8; trial++ {
		const n = 64
		g, err := topology.RandomDigraph(n, 0.05+0.2*rng.Float64(), rng)
		if err != nil {
			t.Fatal(err)
		}
		ground := randomGround(n, rng)
		ground.Add(63)
		threshold := 1 + rng.Intn(3)
		kernel := newInsulationKernel(g)
		kernel.setGround(maskOf(ground))
		members := ground.Members()
		for i := 0; i < 200; i++ {
			l := nodeset.FromMembers(n, 63)
			for size := rng.Intn(6); size > 0; size-- {
				l.Add(members[rng.Intn(len(members))])
			}
			check(trial, g, kernel, ground, l, threshold)
		}
	}
}

// referenceSearch is findDisjointInsulatedPair on the nodeset reference
// primitives, one candidate at a time: each size class k enumerates the
// k-subsets of the ground members admitted by the degree bound (all of
// them without prune) and charges the pruned account up front, each
// candidate is tested with isInsulated, and the empty-complement memo is
// a list of up to deadCap sets. It returns the first pair found and the
// work counters.
func referenceSearch(g *graph.Graph, ground nodeset.Set, threshold int, prune bool) (l, r nodeset.Set, cc checkCounters) {
	m := ground.Count()
	var dead []nodeset.Set
	for k := 1; k <= m/2; k++ {
		pool := ground.Clone()
		if prune {
			ground.ForEach(func(v int) bool {
				if g.CountInFrom(v, ground) >= threshold+k-1 {
					pool.Remove(v)
				}
				return true
			})
			if m <= 62 {
				skipped := binom(m, k) - binom(pool.Count(), k)
				cc.candidates += skipped
				cc.pruned += skipped
			}
		}
		nodeset.SubsetsAscendingSize(pool, k, k, func(cand nodeset.Set) bool {
			cc.candidates++
			if !isInsulated(g, ground, cand, threshold) {
				return true
			}
			for _, d := range dead {
				if d.SubsetOf(cand) {
					cc.memoHits++
					return true
				}
			}
			if rr := maximalInsulatedSubset(g, ground, ground.Difference(cand), threshold); !rr.Empty() {
				l, r = cand.Clone(), rr
				return false
			}
			if len(dead) < deadCap {
				dead = append(dead, cand.Clone())
			}
			return true
		})
		if !l.Empty() {
			return l, r, cc
		}
	}
	return l, r, cc
}

// TestKernelSearchMatchesReference pins the kernel's whole per-ground
// search — degree-pruned enumeration, subtree and last-member bounds,
// memo and early exit — against referenceSearch: the same pair and the same
// three counters. Without pruning, the reference must find the same pair
// with the same memo hits, and on grounds without a pair the same
// candidate count: the degree bound removes only non-insulated candidates
// and keeps the others in the unpruned relative order.
func TestKernelSearchMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	found, memo := 0, 0
	const trials = 2000
	for trial := 0; trial < trials; trial++ {
		n := 2 + rng.Intn(11)
		g, err := topology.RandomDigraph(n, 0.1+0.8*rng.Float64(), rng)
		if err != nil {
			t.Fatal(err)
		}
		ground := randomGround(n, rng)
		threshold := 1 + rng.Intn(4)
		kernel := newInsulationKernel(g)
		var got checkCounters
		l, r := findDisjointInsulatedPair(kernel, maskOf(ground), threshold, &got)
		wantL, wantR, want := referenceSearch(g, ground, threshold, true)
		if l != maskOf(wantL) || r != maskOf(wantR) || got != want {
			t.Fatalf("trial %d (ground %v, threshold %d):\nkernel    L=%v R=%v %+v\nreference L=%v R=%v %+v\n%s",
				trial, ground, threshold, maskSet(n, l), maskSet(n, r), got, wantL, wantR, want, g.EdgeListString())
		}
		unL, unR, un := referenceSearch(g, ground, threshold, false)
		// The pruned account is charged per size class up front, so the
		// candidate counts agree only on grounds searched to the end.
		if !unL.Equal(wantL) || !unR.Equal(wantR) || un.memoHits != want.memoHits ||
			(wantL.Empty() && un.candidates != want.candidates) {
			t.Fatalf("trial %d: unpruned reference L=%v R=%v %+v, pruned L=%v R=%v %+v",
				trial, unL, unR, un, wantL, wantR, want)
		}
		if l != 0 {
			found++
		}
		if got.memoHits > 0 {
			memo++
		}
	}
	if found == 0 || found == trials || memo == 0 {
		t.Fatalf("%d of %d grounds held a pair, %d had memo hits: want both outcomes and memo hits covered", found, trials, memo)
	}
	// A 64-member ground is outside the binomial table: no pruned account.
	g := graph.NewBuilder(64).MustBuild()
	kernel := newInsulationKernel(g)
	kernel.setGround(universeMask(64))
	var c checkCounters
	if !kernel.admit(64, 2, 1, &c) || c != (checkCounters{}) || kernel.npool != 64 {
		t.Fatalf("64-member edgeless ground: account %+v, pool %d; want none, 64", c, kernel.npool)
	}
}

// TestCheckAgreesWithBruteForcedReference re-runs the full checker against a
// from-scratch implementation built on the reference primitives only, so a
// bug in the incremental path cannot hide behind a bug in the enumeration.
func TestCheckAgreesWithBruteForcedReference(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for trial := 0; trial < 60; trial++ {
		n := 3 + rng.Intn(6)
		g, err := topology.RandomDigraph(n, 0.3+0.5*rng.Float64(), rng)
		if err != nil {
			t.Fatal(err)
		}
		f := rng.Intn(3)
		if n-f < 1 {
			f = 0
		}
		threshold := SyncThreshold(f)
		res, err := CheckThreshold(g, f, threshold)
		if err != nil {
			t.Fatal(err)
		}
		want := referenceCheck(g, f, threshold)
		if res.Satisfied != want {
			t.Fatalf("trial %d: Check = %v, reference = %v on %s (f=%d)",
				trial, res.Satisfied, want, g, f)
		}
		if !res.Satisfied {
			if res.Witness == nil {
				t.Fatalf("trial %d: unsatisfied without witness", trial)
			}
			if err := res.Witness.Verify(g, f, threshold); err != nil {
				t.Fatalf("trial %d: witness fails verification: %v", trial, err)
			}
		}
	}
}

// referenceCheck decides the condition with the reference primitives and no
// incremental state.
func referenceCheck(g *graph.Graph, f, threshold int) bool {
	n := g.N()
	universe := nodeset.Universe(n)
	ok := true
	for fSize := 0; fSize <= f && fSize <= n && ok; fSize++ {
		nodeset.SubsetsAscendingSize(universe, fSize, fSize, func(fSet nodeset.Set) bool {
			ground := universe.Difference(fSet)
			nodeset.SubsetsAscendingSize(ground, 1, ground.Count()/2, func(l nodeset.Set) bool {
				if !isInsulated(g, ground, l, threshold) {
					return true
				}
				r := maximalInsulatedSubset(g, ground, ground.Difference(l), threshold)
				if !r.Empty() {
					ok = false
					return false
				}
				return true
			})
			return ok
		})
	}
	return ok
}

// TestCandidateCountSaturates pins the search's bulk count at the int64
// ceiling: a 64-node ground holds more candidates than an int64 counts.
func TestCandidateCountSaturates(t *testing.T) {
	c := checkCounters{candidates: math.MaxInt64 - 3}
	c.count(2)
	if c.candidates != math.MaxInt64-1 {
		t.Fatalf("candidates = %d, want MaxInt64-1", c.candidates)
	}
	c.count(choose(64, 32))
	if c.candidates != math.MaxInt64 {
		t.Fatalf("candidates = %d, want to saturate at MaxInt64", c.candidates)
	}
}
