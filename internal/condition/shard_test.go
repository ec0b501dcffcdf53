package condition

import (
	"context"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"iabc/internal/graph"
	"iabc/internal/nodeset"
	"iabc/internal/statestore"
	"iabc/internal/topology"
)

// composeRanges runs scanner over [0, total) split at the given ascending
// range starts (the first must be 0) and composes the spans the way the
// distributed coordinator does: full-span counters for clean ranges, the
// satisfied prefix plus the violating set's partial for the range that
// stops. It returns the composed Result.
func composeRanges(t *testing.T, scanner *ShardScanner, starts []int64) Result {
	t.Helper()
	ctx := context.Background()
	total := scanner.NumFaultSets()
	res := Result{Satisfied: true}
	var agg WorkCounters
	for i, lo := range starts {
		hi := total
		if i+1 < len(starts) {
			hi = starts[i+1]
		}
		rr, err := scanner.ScanRange(ctx, lo, hi)
		if err != nil {
			t.Fatalf("ScanRange[%d,%d): %v", lo, hi, err)
		}
		agg.Add(rr.Satisfied)
		res.FaultSetsExamined += rr.Completed
		if rr.Violation >= 0 {
			if rr.Violation != lo+rr.Completed {
				t.Fatalf("violation index %d != lo+completed %d", rr.Violation, lo+rr.Completed)
			}
			agg.Add(rr.Partial)
			res.FaultSetsExamined++
			res.Satisfied = false
			res.Witness = rr.Witness
			break
		}
		if rr.Completed != hi-lo {
			t.Fatalf("clean range completed %d of %d", rr.Completed, hi-lo)
		}
	}
	res.CandidatesExamined = agg.Candidates
	res.CandidatesPruned = agg.Pruned
	res.MemoHits = agg.MemoHits
	return res
}

// chunkStarts splits [0, total) into chunk-sized ranges.
func chunkStarts(total, chunk int64) []int64 {
	var starts []int64
	for lo := int64(0); lo < total; lo += chunk {
		starts = append(starts, lo)
	}
	return starts
}

// referenceScan is the scan executor's independent oracle: a plain
// canonical-order loop over referenceSearch, the one-candidate-at-a-time
// nodeset replica of the kernel, for verdict, witness and work counters.
// With reduced, the loop skips the fault sets referenceCanonical rejects,
// as the executor's symmetry reduction does; without, it is the unreduced
// scan. It shares no code with ShardScanner, CheckScan or the kernel. On
// graphs small enough for it, the verdict and witness are also checked
// against the unpruned referenceWitness.
func referenceScan(t *testing.T, g *graph.Graph, f, threshold int, reduced bool) Result {
	t.Helper()
	universe := nodeset.Universe(g.N())
	canonical := referenceCanonical(g, f)
	var res Result
	var cc checkCounters
	for fSize := 0; fSize <= f && fSize <= g.N() && res.Witness == nil; fSize++ {
		nodeset.SubsetsAscendingSize(universe, fSize, fSize, func(fSet nodeset.Set) bool {
			res.FaultSetsExamined++
			if reduced && !canonical(fSet) {
				return true
			}
			ground := universe.Difference(fSet)
			l, r, fc := referenceSearch(g, ground, threshold, true)
			cc.candidates += fc.candidates
			cc.pruned += fc.pruned
			cc.memoHits += fc.memoHits
			if !l.Empty() {
				res.Witness = &Witness{F: fSet.Clone(), L: l, C: ground.Difference(l).Difference(r), R: r}
			}
			return res.Witness == nil
		})
	}
	res.CandidatesExamined, res.CandidatesPruned, res.MemoHits = cc.candidates, cc.pruned, cc.memoHits
	res.Satisfied = res.Witness == nil
	if g.N() <= 13 {
		if want := referenceWitness(g, f, threshold); !reflect.DeepEqual(res.Witness, want) {
			t.Fatalf("reference witnesses disagree: pruned search %v, unpruned %v", res.Witness, want)
		}
	}
	return res
}

// referenceSymmetries lists, as explicit permutations, every rotation
// i ↦ i+s and reflection i ↦ s−i (mod n) of g's labels — the identity
// included — under which g's edge set is unchanged, found by brute force
// over a map of the edges.
func referenceSymmetries(g *graph.Graph) [][]int {
	n := g.N()
	edges := map[[2]int]bool{}
	g.ForEachEdge(func(from, to int) { edges[[2]int{from, to}] = true })
	var out [][]int
	for s := 0; s < n; s++ {
		rot, refl := make([]int, n), make([]int, n)
		for i := range rot {
			rot[i], refl[i] = (i+s)%n, ((s-i)%n+n)%n
		}
		for _, p := range [][]int{rot, refl} {
			same := true
			for e := range edges {
				same = same && edges[[2]int{p[e[0]], p[e[1]]}]
			}
			if same {
				out = append(out, p)
			}
		}
	}
	return out
}

// referenceCanonical returns the oracle's canonical-fault-set predicate: F
// is canonical unless some referenceSymmetries permutation maps it to a
// fault set of lower rank, the ranks read off the canonical enumeration
// itself.
func referenceCanonical(g *graph.Graph, f int) func(nodeset.Set) bool {
	n := g.N()
	rank := map[string]int{}
	nodeset.SubsetsAscendingSize(nodeset.Universe(n), 0, f, func(fSet nodeset.Set) bool {
		rank[fSet.String()] = len(rank)
		return true
	})
	perms := referenceSymmetries(g)
	return func(fSet nodeset.Set) bool {
		for _, p := range perms {
			img := nodeset.New(n)
			fSet.ForEach(func(v int) bool {
				img.Add(p[v])
				return true
			})
			if rank[img.String()] < rank[fSet.String()] {
				return false
			}
		}
		return true
	}
}

// resultEqual compares the fields a distributed scan must reproduce.
func resultEqual(t *testing.T, got, want Result) {
	t.Helper()
	if got.Satisfied != want.Satisfied {
		t.Fatalf("Satisfied = %v, want %v", got.Satisfied, want.Satisfied)
	}
	if got.FaultSetsExamined != want.FaultSetsExamined {
		t.Fatalf("FaultSetsExamined = %d, want %d", got.FaultSetsExamined, want.FaultSetsExamined)
	}
	if got.CandidatesExamined != want.CandidatesExamined ||
		got.CandidatesPruned != want.CandidatesPruned ||
		got.MemoHits != want.MemoHits {
		t.Fatalf("counters = (%d,%d,%d), want (%d,%d,%d)",
			got.CandidatesExamined, got.CandidatesPruned, got.MemoHits,
			want.CandidatesExamined, want.CandidatesPruned, want.MemoHits)
	}
	if (got.Witness == nil) != (want.Witness == nil) {
		t.Fatalf("witness presence = %v, want %v", got.Witness != nil, want.Witness != nil)
	}
	if got.Witness != nil && !reflect.DeepEqual(got.Witness, want.Witness) {
		t.Fatalf("witness = %v, want %v", got.Witness, want.Witness)
	}
}

// shardCase builds the named topology for the shard conformance tests.
func shardCase(t *testing.T, kind string, n, f int) *graph.Graph {
	t.Helper()
	var g *graph.Graph
	var err error
	switch kind {
	case "core":
		g, err = topology.CoreNetwork(n, f)
	case "chord":
		g, err = topology.Chord(n, f)
	default:
		t.Fatalf("unknown topology kind %q", kind)
	}
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestShardScanComposesToSequential pins the distribution seam's soundness:
// for every chunking of the canonical enumeration, composing ScanRange spans
// reproduces the reference scan verbatim — verdict, witness (lowest
// violating index, early-exit partial counters included), and work totals.
func TestShardScanComposesToSequential(t *testing.T) {
	for _, tc := range []struct {
		kind string
		n, f int
	}{
		{"core", 13, 4},  // satisfied
		{"chord", 7, 2},  // violated (Section 6.3's example)
		{"chord", 11, 3}, // violated
	} {
		g := shardCase(t, tc.kind, tc.n, tc.f)
		threshold := SyncThreshold(tc.f)
		want := referenceScan(t, g, tc.f, threshold, true)
		scanner, err := NewShardScanner(g, tc.f, threshold)
		if err != nil {
			t.Fatal(err)
		}
		if got, wantTotal := scanner.NumFaultSets(), NumFaultSets(tc.n, tc.f); got != wantTotal {
			t.Fatalf("NumFaultSets = %d, want %d", got, wantTotal)
		}
		for _, chunk := range []int64{1, 7, 64, scanner.NumFaultSets() + 1} {
			got := composeRanges(t, scanner, chunkStarts(scanner.NumFaultSets(), chunk))
			resultEqual(t, got, want)
		}
	}
}

// TestShardScanRangeIsPure re-scans the same range twice on one scanner and
// on a fresh scanner; all three must agree — the purity fact lease
// re-execution rests on.
func TestShardScanRangeIsPure(t *testing.T) {
	g := shardCase(t, "chord", 11, 3)
	threshold := SyncThreshold(3)
	s1, err := NewShardScanner(g, 3, threshold)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := NewShardScanner(g, 3, threshold)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	total := s1.NumFaultSets()
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 20; i++ {
		lo := rng.Int63n(total)
		hi := lo + 1 + rng.Int63n(total-lo)
		a, err := s1.ScanRange(ctx, lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		b, err := s1.ScanRange(ctx, lo, hi) // same scanner, again
		if err != nil {
			t.Fatal(err)
		}
		c, err := s2.ScanRange(ctx, lo, hi) // fresh scanner
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) || !reflect.DeepEqual(a, c) {
			t.Fatalf("range [%d,%d) not pure:\n a=%+v\n b=%+v\n c=%+v", lo, hi, a, b, c)
		}
	}
}

// TestScanFrontierSpans drives the exported frontier with out-of-order
// spans over a Mem store and checks the durable frontier never jumps the
// gap, then resumes from exactly the journaled prefix.
func TestScanFrontierSpans(t *testing.T) {
	g := shardCase(t, "core", 13, 4)
	store := statestore.NewMem()
	ctx := context.Background()
	threshold := SyncThreshold(4)
	fr, cached, err := LoadScanFrontier(ctx, store, g, 4, threshold, 1)
	if err != nil || cached != nil {
		t.Fatalf("LoadScanFrontier: cached=%v err=%v", cached, err)
	}
	if start, _ := fr.ResumePoint(); start != 0 {
		t.Fatalf("fresh resume point = %d", start)
	}
	// Journal [40, 100) before [0, 40): the frontier must hold at 0.
	if err := fr.CompleteSpan(ctx, 40, 100, WorkCounters{Candidates: 60}); err != nil {
		t.Fatal(err)
	}
	if pos, _ := fr.Position(); pos != 0 {
		t.Fatalf("frontier jumped the gap: %d", pos)
	}
	if err := fr.CompleteSpan(ctx, 0, 40, WorkCounters{Candidates: 40, Pruned: 4}); err != nil {
		t.Fatal(err)
	}
	pos, agg := fr.Position()
	if pos != 100 || agg.Candidates != 100 || agg.Pruned != 4 {
		t.Fatalf("after gap fill: pos=%d agg=%+v", pos, agg)
	}
	if err := fr.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	// A fresh frontier over the same store resumes at the flushed prefix.
	fr2, cached, err := LoadScanFrontier(ctx, store, g, 4, threshold, 1)
	if err != nil || cached != nil {
		t.Fatalf("reload: cached=%v err=%v", cached, err)
	}
	start, agg := fr2.ResumePoint()
	if start != 100 || agg.Candidates != 100 || agg.Pruned != 4 {
		t.Fatalf("resume point = %d, %+v", start, agg)
	}
	// Finish caches the verdict; the next load serves it.
	res := Result{Satisfied: true, FaultSetsExamined: fr2.Total(), CandidatesExamined: 1234}
	if err := fr2.Finish(ctx, res); err != nil {
		t.Fatal(err)
	}
	_, cached, err = LoadScanFrontier(ctx, store, g, 4, threshold, 1)
	if err != nil || cached == nil || !cached.CacheHit || cached.CandidatesExamined != 1234 {
		t.Fatalf("after finish: cached=%+v err=%v", cached, err)
	}
	// Memory-only frontier (nil store) aggregates without persistence.
	fr3, cached, err := LoadScanFrontier(ctx, nil, g, 4, threshold, 0)
	if err != nil || cached != nil {
		t.Fatalf("nil-store load: cached=%v err=%v", cached, err)
	}
	if err := fr3.CompleteSpan(ctx, 0, 5, WorkCounters{MemoHits: 2}); err != nil {
		t.Fatal(err)
	}
	if pos, agg := fr3.Position(); pos != 5 || agg.MemoHits != 2 {
		t.Fatalf("nil-store frontier: pos=%d agg=%+v", pos, agg)
	}
	if err := fr3.Flush(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestShardScannerIndexesCanonicalOrder pins rank addressing: for every
// n ≤ 12 and f ≤ 4, and for n = 64 past the binomial table, the cursor on
// fault set k — reached by stepping forward, and by unranking when
// walking backwards — is the k-th set SubsetsAscendingSize visits, with
// the ground mask its complement (bit 63 included at n = 64).
func TestShardScannerIndexesCanonicalOrder(t *testing.T) {
	type tc struct{ n, f int }
	var cases []tc
	for n := 1; n <= 12; n++ {
		for f := 0; f <= 4; f++ {
			cases = append(cases, tc{n, f})
		}
	}
	cases = append(cases, tc{64, 2})
	for _, c := range cases {
		g := graph.NewBuilder(c.n).MustBuild()
		s, err := NewShardScanner(g, c.f, 1)
		if err != nil {
			t.Fatal(err)
		}
		universe := nodeset.Universe(c.n)
		var want []nodeset.Set
		nodeset.SubsetsAscendingSize(universe, 0, c.f, func(fSet nodeset.Set) bool {
			want = append(want, fSet.Clone())
			return true
		})
		if s.NumFaultSets() != int64(len(want)) {
			t.Fatalf("n=%d f=%d: NumFaultSets = %d, enumeration has %d", c.n, c.f, s.NumFaultSets(), len(want))
		}
		check := func(k int64, how string) {
			s.moveTo(k)
			if got := nodeset.FromMembers(c.n, s.comb...); !got.Equal(want[k]) || s.ground != maskOf(universe.Difference(want[k])) {
				t.Fatalf("n=%d f=%d: %s to fault set %d gives F=%v ground=%v, want F=%v",
					c.n, c.f, how, k, got, maskSet(c.n, s.ground), want[k])
			}
		}
		for k := range want {
			check(int64(k), "stepping")
		}
		for k := len(want) - 2; k >= 0; k-- {
			check(int64(k), "unranking")
		}
	}
}

// TestShardScanSizeClassBoundaries composes ScanRange spans that start
// exactly on the first index of each fault-set size class, and one short of
// it, against the reference scan.
func TestShardScanSizeClassBoundaries(t *testing.T) {
	for _, tc := range []struct {
		kind string
		n, f int
	}{
		{"core", 13, 4},  // satisfied
		{"chord", 11, 3}, // violated
	} {
		g := shardCase(t, tc.kind, tc.n, tc.f)
		threshold := SyncThreshold(tc.f)
		want := referenceScan(t, g, tc.f, threshold, true)
		scanner, err := NewShardScanner(g, tc.f, threshold)
		if err != nil {
			t.Fatal(err)
		}
		// Size classes start at 0, 1, 1+n, …; the off-by-one split
		// skips 0, which is already a range start.
		onClass, offByOne := []int64{0}, []int64{0}
		for k, start := 0, int64(0); k < tc.f; k++ {
			start += binom(tc.n, k)
			onClass = append(onClass, start)
			if start > 1 {
				offByOne = append(offByOne, start-1)
			}
		}
		for _, starts := range [][]int64{onClass, offByOne} {
			resultEqual(t, composeRanges(t, scanner, starts), want)
		}
	}
}

// TestNewShardScannerAllocsIndependentOfExtent pins that a scanner costs
// O(n): core:19 at f = 7 has 94,184 fault sets, none of which may be
// materialized up front, and chord:19 at f = 2 has 18 automorphisms, which
// must not cost an allocation each.
func TestNewShardScannerAllocsIndependentOfExtent(t *testing.T) {
	for _, tc := range []struct {
		g     *graph.Graph
		scanF int
	}{
		{shardCase(t, "core", 19, 6), 7},
		{shardCase(t, "chord", 19, 2), 2},
	} {
		allocs := testing.AllocsPerRun(10, func() {
			if _, err := NewShardScanner(tc.g, tc.scanF, SyncThreshold(tc.scanF)); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > float64(tc.g.N()) {
			t.Fatalf("%v: NewShardScanner made %.0f allocations, want at most n = %d", tc.g, allocs, tc.g.N())
		}
	}
}

// TestShardScanAllocatesNothing pins the scan kernel's zero-allocation
// guarantee: over a satisfied ShardScanner range — cursor steps and
// unranking, the symmetry test, ground counts, the candidate search and
// its peels — no fault set allocates. core(13,4), with one reflection,
// scans nearly every fault set in full.
func TestShardScanAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inexact under the race detector")
	}
	ctx := context.Background()
	for _, tc := range []struct {
		kind string
		n, f int
	}{
		{"chord", 16, 2},
		{"core", 13, 4},
	} {
		g := shardCase(t, tc.kind, tc.n, tc.f)
		s, err := NewShardScanner(g, tc.f, SyncThreshold(tc.f))
		if err != nil {
			t.Fatal(err)
		}
		var rr RangeResult
		allocs := testing.AllocsPerRun(3, func() {
			rr, err = s.ScanRange(ctx, 0, s.NumFaultSets())
		})
		if err != nil || rr.Violation >= 0 || rr.Satisfied.Candidates == 0 {
			t.Fatalf("%s(%d,%d): range result %+v, err %v; want a satisfied scan", tc.kind, tc.n, tc.f, rr, err)
		}
		if allocs != 0 {
			t.Fatalf("%s(%d,%d): %.0f allocations over %d fault sets, want 0", tc.kind, tc.n, tc.f, allocs, s.NumFaultSets())
		}
	}
}

// TestShardScanWordEdge runs the scan where bit 63 of the kernel's masks is
// a node. complete(64) at f = 2 under both thresholds has every candidate
// pruned by the degree bound, and grounds of 63 and 64 members outside the
// binomial table; in the second graph — a 62-clique beside nodes 62 and 63,
// each fed by the other and two clique nodes — L = {62, 63} violates at
// F = ∅. Each must equal referenceScan in verdict, witness and every
// counter. A 65-node graph, which one word cannot hold, is rejected even
// when n − f ≤ 62.
func TestShardScanWordEdge(t *testing.T) {
	complete64, err := topology.Complete(64)
	if err != nil {
		t.Fatal(err)
	}
	b := graph.NewBuilder(64)
	for u := 0; u < 62; u++ {
		for v := 0; v < 62; v++ {
			if u != v {
				b.AddEdge(u, v)
			}
		}
	}
	b.AddUndirected(62, 63)
	b.AddEdge(0, 62).AddEdge(1, 62).AddEdge(2, 63).AddEdge(3, 63)
	pair := b.MustBuild()
	ctx := context.Background()
	for _, tc := range []struct {
		name      string
		g         *graph.Graph
		threshold int
		satisfied bool
	}{
		{"complete64_sync", complete64, SyncThreshold(2), true},
		{"complete64_async", complete64, AsyncThreshold(2), true},
		{"pair62_63", pair, SyncThreshold(2), false},
	} {
		want := referenceScan(t, tc.g, 2, tc.threshold, true)
		got, err := CheckScan(ctx, tc.g, 2, tc.threshold, ScanOptions{Workers: 2})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		resultEqual(t, got, want)
		if got.Satisfied != tc.satisfied {
			t.Fatalf("%s: satisfied = %v, want %v", tc.name, got.Satisfied, tc.satisfied)
		}
		if !tc.satisfied {
			if w := got.Witness; !w.L.Equal(nodeset.FromMembers(64, 62, 63)) || !w.F.Empty() {
				t.Fatalf("%s: witness %v, want F = ∅ and L = {62, 63}", tc.name, w)
			}
			if err := got.Witness.Verify(tc.g, 2, tc.threshold); err != nil {
				t.Fatalf("%s: witness fails Verify: %v", tc.name, err)
			}
		}
	}
	big := graph.NewBuilder(65).AddEdge(0, 1).MustBuild()
	if _, err := Check(big, 3); err == nil || !strings.Contains(err.Error(), "n <= 64") {
		t.Fatalf("Check on 65 nodes with n-f = 62: err %v, want the one-word limit", err)
	}
}
