package iabc_test

// Distributed-facade equivalence: WithWorkerPool must be invisible in the
// results — Check, MaxF, and Sweep return exactly what the single-process
// call returns, with the work flowing through the coordinator–worker job
// protocol instead. Also pins the sweep's durable checkpointing surface
// (WithBackend) on both the local and distributed paths.

import (
	"context"
	"math"
	"reflect"
	"testing"

	"iabc"
	"iabc/internal/condition"
	"iabc/internal/nodeset"
	"iabc/internal/topology"
)

func distribScenarios() []iabc.Scenario {
	return []iabc.Scenario{
		{Name: "hug-low", Adversary: iabc.Hug{}},
		{Name: "silent", Adversary: iabc.Silent{}},
		{Name: "insider", Adversary: &iabc.Insider{High: true}},
	}
}

func distribSweepOpts(initial []float64, extra ...iabc.Option) []iabc.Option {
	return append([]iabc.Option{
		iabc.WithF(2),
		iabc.WithFaulty(0, 1),
		iabc.WithInitial(initial),
		iabc.WithAdversary(iabc.Hug{High: true}),
		iabc.WithMaxRounds(60),
		iabc.WithRecordStates(),
	}, extra...)
}

// TestWorkerPoolCheckMatchesLocal runs Check through a two-worker pool and
// requires the full CheckResult — witness and counters included — to
// deep-equal the local scan, with the coordinator summary observed.
func TestWorkerPoolCheckMatchesLocal(t *testing.T) {
	for _, tc := range []struct {
		name string
		mk   func() (*iabc.Graph, error)
		f    int
	}{
		{"core-satisfied", func() (*iabc.Graph, error) { return iabc.CoreNetwork(10, 2) }, 2},
		{"chord-violated", func() (*iabc.Graph, error) { return iabc.Chord(7, 2) }, 2},
	} {
		g, err := tc.mk()
		if err != nil {
			t.Fatal(err)
		}
		want, err := iabc.Check(context.Background(), g, tc.f)
		if err != nil {
			t.Fatal(err)
		}
		var summary iabc.Event
		got, err := iabc.Check(context.Background(), g, tc.f,
			iabc.WithWorkerPool(2),
			iabc.WithObserver(func(e iabc.Event) {
				if e.Kind == iabc.EventCoordinator {
					summary = e
				}
			}),
		)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: pooled check %+v, local %+v", tc.name, got, want)
		}
		if summary.Kind != iabc.EventCoordinator || summary.Name == "" || summary.Done == 0 {
			t.Fatalf("%s: coordinator summary event = %+v", tc.name, summary)
		}
	}
}

// TestCheckViolatedResultIndependentOfWorkers pins that a violated check
// returns the same Result — witness and every counter — and persists the
// same verdict record bytes at 1, 2 and 4 in-process workers and through a
// two-worker pool. The counters must not depend on how the goroutines
// race, because the Result is what the verdict cache stores.
func TestCheckViolatedResultIndependentOfWorkers(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		name string
		mk   func() (*iabc.Graph, error)
		f    int
	}{
		{"core19-f7", func() (*iabc.Graph, error) { return iabc.CoreNetwork(19, 6) }, 7},
		{"chord11-f3", func() (*iabc.Graph, error) { return iabc.Chord(11, 3) }, 3},
	} {
		g, err := tc.mk()
		if err != nil {
			t.Fatal(err)
		}
		run := func(opt iabc.Option) (iabc.CheckResult, map[string]string) {
			mem := iabc.NewMemBackend()
			res, err := iabc.Check(ctx, g, tc.f, opt, iabc.WithBackend(mem))
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			keys, err := mem.List(ctx, "")
			if err != nil {
				t.Fatal(err)
			}
			records := make(map[string]string, len(keys))
			for _, k := range keys {
				raw, err := mem.Read(ctx, k)
				if err != nil {
					t.Fatal(err)
				}
				records[k] = string(raw)
			}
			return res, records
		}
		want, wantRecords := run(iabc.WithWorkers(1))
		if want.Satisfied || len(wantRecords) != 1 {
			t.Fatalf("%s: want a violation and one verdict record, got %+v, records %v", tc.name, want, wantRecords)
		}
		for _, alt := range []struct {
			name string
			opt  iabc.Option
		}{
			{"workers=2", iabc.WithWorkers(2)},
			{"workers=4", iabc.WithWorkers(4)},
			{"pool=2", iabc.WithWorkerPool(2)},
		} {
			got, records := run(alt.opt)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s %s: Result %+v, workers=1 %+v", tc.name, alt.name, got, want)
			}
			if !reflect.DeepEqual(records, wantRecords) {
				t.Errorf("%s %s: persisted records differ from the workers=1 run", tc.name, alt.name)
			}
		}
	}
}

// literalScan is an unreduced oracle for a check's Satisfied, Witness and
// FaultSetsExamined, built from the Definition 1 primitives alone: every
// fault set in canonical order, candidate L sets by ascending size, L
// insulated when C∪R ⇏ L, and R the maximal subset of the rest that the
// remaining nodes cannot reach, peeled one in(·) step at a time. It shares
// no code with the scan executor and applies no symmetry reduction.
func literalScan(g *iabc.Graph, f, threshold int) (w *condition.Witness, faultSets int64) {
	universe := nodeset.Universe(g.N())
	for size := 0; size <= f && w == nil; size++ {
		nodeset.SubsetsAscendingSize(universe, size, size, func(fSet nodeset.Set) bool {
			faultSets++
			ground := universe.Difference(fSet)
			nodeset.SubsetsAscendingSize(ground, 1, ground.Count()/2, func(l nodeset.Set) bool {
				if condition.Reaches(g, ground.Difference(l), l, threshold) {
					return true
				}
				r := ground.Difference(l)
				for {
					bad := condition.In(g, ground.Difference(r), r, threshold)
					if bad.Empty() {
						break
					}
					r = r.Difference(bad)
				}
				if !r.Empty() {
					w = &condition.Witness{F: fSet.Clone(), L: l.Clone(), C: ground.Difference(l).Difference(r), R: r}
				}
				return w == nil
			})
			return w == nil
		})
	}
	return w, faultSets
}

// TestWorkerPoolSymmetryReductionExact runs graphs with rotation and
// reflection automorphisms through a two-worker pool, whose workers skip
// the fault sets an automorphism maps to a lower rank, and requires the
// unreduced oracle's verdict, witness and fault-set count.
func TestWorkerPoolSymmetryReductionExact(t *testing.T) {
	for _, tc := range []struct {
		name string
		mk   func() (*iabc.Graph, error)
		f    int
	}{
		{"chord7", func() (*iabc.Graph, error) { return iabc.Chord(7, 2) }, 2},
		{"chord10", func() (*iabc.Graph, error) { return iabc.Chord(10, 2) }, 2},
		{"chord11", func() (*iabc.Graph, error) { return iabc.Chord(11, 3) }, 3},
		{"ring8", func() (*iabc.Graph, error) { return topology.UndirectedRing(8) }, 1},
		{"cycle6", func() (*iabc.Graph, error) { return topology.DirectedCycle(6) }, 1},
		{"complete7", func() (*iabc.Graph, error) { return iabc.Complete(7) }, 2},
		{"core10", func() (*iabc.Graph, error) { return iabc.CoreNetwork(10, 3) }, 3},
		{"hypercube3", func() (*iabc.Graph, error) { return iabc.Hypercube(3) }, 1},
		{"circulant11", func() (*iabc.Graph, error) { return iabc.Circulant(11, []int{1, 2, 3, 8, 9, 10}) }, 2},
	} {
		g, err := tc.mk()
		if err != nil {
			t.Fatal(err)
		}
		want, wantFaultSets := literalScan(g, tc.f, iabc.SyncThreshold(tc.f))
		got, err := iabc.Check(context.Background(), g, tc.f, iabc.WithWorkerPool(2))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got.Satisfied != (want == nil) || got.FaultSetsExamined != wantFaultSets {
			t.Fatalf("%s: satisfied %v after %d fault sets, oracle %v after %d",
				tc.name, got.Satisfied, got.FaultSetsExamined, want == nil, wantFaultSets)
		}
		if want != nil && (!got.Witness.F.Equal(want.F) || !got.Witness.L.Equal(want.L) ||
			!got.Witness.C.Equal(want.C) || !got.Witness.R.Equal(want.R)) {
			t.Fatalf("%s: witness %v, oracle %v", tc.name, got.Witness, want)
		}
	}
}

// TestWorkerPoolMaxFMatchesLocal distributes the whole f-sweep and compares
// best f plus every aggregated stat against the local scan.
func TestWorkerPoolMaxFMatchesLocal(t *testing.T) {
	g, err := iabc.Chord(11, 3)
	if err != nil {
		t.Fatal(err)
	}
	wantBest, wantStats, err := iabc.MaxFWithStats(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	gotBest, gotStats, err := iabc.MaxFWithStats(context.Background(), g, iabc.WithWorkerPool(2))
	if err != nil {
		t.Fatal(err)
	}
	if gotBest != wantBest || !reflect.DeepEqual(gotStats, wantStats) {
		t.Fatalf("pooled maxf = %d %+v, local %d %+v", gotBest, gotStats, wantBest, wantStats)
	}
}

// TestWorkerPoolSweepMatchesLocal runs a sweep through the pool — composed
// with WithCoordinator on an ephemeral port — and compares every trace
// bit-for-bit.
func TestWorkerPoolSweepMatchesLocal(t *testing.T) {
	g := facadeGraph(t)
	initial := facadeInitial(g.N())
	scens := distribScenarios()

	want, err := iabc.Sweep(context.Background(), g, scens, distribSweepOpts(initial)...)
	if err != nil {
		t.Fatal(err)
	}
	var summary iabc.Event
	got, err := iabc.Sweep(context.Background(), g, scens, distribSweepOpts(initial,
		iabc.WithCoordinator("127.0.0.1:0"),
		iabc.WithWorkerPool(2),
		iabc.WithObserver(func(e iabc.Event) {
			if e.Kind == iabc.EventCoordinator {
				summary = e
			}
		}),
	)...)
	if err != nil {
		t.Fatal(err)
	}
	for i := range scens {
		tracesEqual(t, scens[i].Name, want.Traces[i], got.Traces[i])
		for r := range want.Traces[i].States {
			for j := range want.Traces[i].States[r] {
				if math.Float64bits(want.Traces[i].States[r][j]) != math.Float64bits(got.Traces[i].States[r][j]) {
					t.Fatalf("%s: states[%d][%d] differ", scens[i].Name, r, j)
				}
			}
		}
	}
	if summary.Kind != iabc.EventCoordinator || summary.Total == 0 {
		t.Fatalf("coordinator summary event = %+v", summary)
	}
}

// TestSweepResumeThroughFacade pins the sweep checkpointing surface: a
// sweep over WithBackend persists per-scenario results, and re-running it —
// locally or through a worker pool — resumes them bit-identically.
func TestSweepResumeThroughFacade(t *testing.T) {
	g := facadeGraph(t)
	initial := facadeInitial(g.N())
	scens := distribScenarios()
	store := iabc.NewMemBackend()

	want, err := iabc.Sweep(context.Background(), g, scens,
		distribSweepOpts(initial, iabc.WithBackend(store))...)
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := iabc.Sweep(context.Background(), g, scens,
		distribSweepOpts(initial, iabc.WithBackend(store))...)
	if err != nil {
		t.Fatal(err)
	}
	if resumed.ScenariosResumed != len(scens) {
		t.Fatalf("local resume: ScenariosResumed = %d, want %d", resumed.ScenariosResumed, len(scens))
	}
	pooled, err := iabc.Sweep(context.Background(), g, scens,
		distribSweepOpts(initial, iabc.WithBackend(store), iabc.WithWorkerPool(2))...)
	if err != nil {
		t.Fatal(err)
	}
	if pooled.ScenariosResumed != len(scens) {
		t.Fatalf("pooled resume: ScenariosResumed = %d, want %d", pooled.ScenariosResumed, len(scens))
	}
	for i := range scens {
		tracesEqual(t, scens[i].Name+"/local", want.Traces[i], resumed.Traces[i])
		tracesEqual(t, scens[i].Name+"/pooled", want.Traces[i], pooled.Traces[i])
	}

	// A different seed salts the identity: nothing resumes.
	fresh, err := iabc.Sweep(context.Background(), g, scens,
		distribSweepOpts(initial, iabc.WithBackend(store), iabc.WithSeed(7))...)
	if err != nil {
		t.Fatal(err)
	}
	if fresh.ScenariosResumed != 0 {
		t.Fatalf("different seed resumed %d scenarios", fresh.ScenariosResumed)
	}
}
