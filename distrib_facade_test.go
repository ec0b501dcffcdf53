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
