package condition

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"iabc/internal/graph"
	"iabc/internal/topology"
)

// relabelled returns g with each node v renamed perm[v].
func relabelled(g *graph.Graph, perm []int) *graph.Graph {
	b := graph.NewBuilder(g.N())
	g.ForEachEdge(func(from, to int) { b.AddEdge(perm[from], perm[to]) })
	return b.MustBuild()
}

// swap01 is the relabelling that exchanges nodes 0 and 1 and fixes the
// rest. For n ≥ 4 it is not affine: an affine i ↦ a·i+b fixing 2 and 3
// is the identity.
func swap01(n int) []int {
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	perm[0], perm[1] = 1, 0
	return perm
}

// TestSymmetryReducedScanExact pins the reduction's exactness: on graphs
// with rotation or reflection automorphisms, CheckScan at 1, 2 and 4
// workers returns the unreduced oracle's Satisfied, Witness and
// FaultSetsExamined, and the work counters of the oracle restricted to
// canonical fault sets.
func TestSymmetryReducedScanExact(t *testing.T) {
	mk := func(g *graph.Graph, err error) *graph.Graph {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	for _, tc := range []struct {
		name      string
		g         *graph.Graph
		f         int
		threshold int
	}{
		// Violated at a non-empty lowest fault set (checked below).
		{"chord7_f2", mk(topology.Chord(7, 2)), 2, SyncThreshold(2)},
		{"chord10_f2", mk(topology.Chord(10, 2)), 2, SyncThreshold(2)},
		{"chord11_f3", mk(topology.Chord(11, 3)), 3, SyncThreshold(3)},
		{"chord12_f3", mk(topology.Chord(12, 3)), 3, SyncThreshold(3)},
		{"chord12_f1", mk(topology.Chord(12, 1)), 1, SyncThreshold(1)},
		{"ring8_f1", mk(topology.UndirectedRing(8)), 1, SyncThreshold(1)},
		{"ring9_f0", mk(topology.UndirectedRing(9)), 0, SyncThreshold(0)},
		{"cycle6_f0", mk(topology.DirectedCycle(6)), 0, SyncThreshold(0)},
		{"cycle6_f1", mk(topology.DirectedCycle(6)), 1, SyncThreshold(1)},
		{"complete7_f2", mk(topology.Complete(7)), 2, SyncThreshold(2)},
		{"complete11_f2_async", mk(topology.Complete(11)), 2, AsyncThreshold(2)},
		{"core10_f3", mk(topology.CoreNetwork(10, 3)), 3, SyncThreshold(3)},
		{"hypercube3_f1", mk(topology.Hypercube(3)), 1, SyncThreshold(1)},
		{"circulant11_f2", mk(topology.Circulant(11, []int{1, 2, 3, 8, 9, 10})), 2, SyncThreshold(2)},
		{"circulant11_f1_async", mk(topology.Circulant(11, []int{1, 2, 3, 8, 9, 10})), 1, AsyncThreshold(1)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			unreduced := referenceScan(t, tc.g, tc.f, tc.threshold, false)
			reduced := referenceScan(t, tc.g, tc.f, tc.threshold, true)
			for _, workers := range []int{1, 2, 4} {
				got, err := CheckScan(context.Background(), tc.g, tc.f, tc.threshold, ScanOptions{Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				if got.Satisfied != unreduced.Satisfied || got.FaultSetsExamined != unreduced.FaultSetsExamined ||
					!reflect.DeepEqual(got.Witness, unreduced.Witness) {
					t.Fatalf("workers=%d: (satisfied %v, fault sets %d, witness %v), unreduced oracle (%v, %d, %v)",
						workers, got.Satisfied, got.FaultSetsExamined, got.Witness,
						unreduced.Satisfied, unreduced.FaultSetsExamined, unreduced.Witness)
				}
				resultEqual(t, got, reduced)
			}
		})
	}
	// chord(7,2) is the case where skipping could lose the witness: its
	// lowest violating fault set is not ∅.
	g := mk(topology.Chord(7, 2))
	if w := referenceScan(t, g, 2, SyncThreshold(2), false).Witness; w == nil || w.F.Empty() {
		t.Fatalf("chord(7,2) witness %v: want a violation with non-empty F", w)
	}
}

// TestSymmetriesDetected pins which automorphisms the scanner keeps, and
// that on graphs with none every counter equals the unreduced oracle's.
func TestSymmetriesDetected(t *testing.T) {
	count := func(auts []automorphism) (rotations, reflections int) {
		for _, a := range auts {
			if a.reflect {
				reflections++
			} else {
				rotations++
			}
		}
		return rotations, reflections
	}
	if rot, refl := count(symmetries(shardCase(t, "chord", 19, 2))); rot != 18 || refl != 0 {
		t.Fatalf("chord(19,2): %d rotations, %d reflections; want 18, 0", rot, refl)
	}
	for _, n := range []int{3, 4, 7, 10} {
		ring, err := topology.UndirectedRing(n)
		if err != nil {
			t.Fatal(err)
		}
		if rot, refl := count(symmetries(ring)); rot != n-1 || refl != n {
			t.Fatalf("ring(%d): %d rotations, %d reflections; want %d, %d", n, rot, refl, n-1, n)
		}
	}
	if got, want := symmetries(shardCase(t, "core", 19, 6)), []automorphism{{shift: 12, reflect: true}}; !reflect.DeepEqual(got, want) {
		t.Fatalf("core(19,6) automorphisms %v, want only i ↦ 12−i", got)
	}

	random, err := topology.RandomDigraph(10, 0.5, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		g    *graph.Graph
		f    int
	}{
		{"random10", random, 2},
		{"chord11_relabelled", relabelled(shardCase(t, "chord", 11, 3), swap01(11)), 3},
		{"chord12_relabelled", relabelled(shardCase(t, "chord", 12, 2), swap01(12)), 2},
	} {
		if auts := symmetries(tc.g); len(auts) != 0 {
			t.Fatalf("%s: detected %v, want none", tc.name, auts)
		}
		got, err := CheckScan(context.Background(), tc.g, tc.f, SyncThreshold(tc.f), ScanOptions{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		resultEqual(t, got, referenceScan(t, tc.g, tc.f, SyncThreshold(tc.f), false))
	}
}

// TestCanonicalAllocatesNothing pins that the per-fault-set symmetry test
// stays off the heap.
func TestCanonicalAllocatesNothing(t *testing.T) {
	s, err := NewShardScanner(shardCase(t, "chord", 19, 2), 2, SyncThreshold(2))
	if err != nil {
		t.Fatal(err)
	}
	if len(s.auts) == 0 {
		t.Fatal("chord(19,2) scanner detected no automorphisms")
	}
	s.moveTo(s.NumFaultSets() - 1)
	if allocs := testing.AllocsPerRun(100, func() { s.canonical() }); allocs != 0 {
		t.Fatalf("canonical made %.0f allocations, want 0", allocs)
	}
}
