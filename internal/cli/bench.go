package cli

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sync"
	"testing"
	"time"

	"iabc"
	"iabc/internal/core"
	"iabc/internal/distrib"

	"math/rand"
)

// BenchResult is one hot-path measurement in the BENCH_<date>.json
// trajectory artifact.
type BenchResult struct {
	Name        string             `json:"name"`
	Iterations  int                `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	AllocsPerOp int64              `json:"allocs_per_op"`
	BytesPerOp  int64              `json:"bytes_per_op"`
	Extra       map[string]float64 `json:"extra,omitempty"`
}

// BenchArtifact is the file cmdBench writes. One artifact per run; the
// dated series across PRs is the performance trajectory of the repo.
type BenchArtifact struct {
	Date    string        `json:"date"`
	Go      string        `json:"go"`
	Notes   string        `json:"notes,omitempty"`
	Results []BenchResult `json:"results"`
}

// cmdBench implements `iabc bench`: run the hot-path micro-benchmarks with
// allocation tracking (the in-binary equivalent of `go test -bench
// -benchmem` over the engine and checker paths) and write the JSON
// trajectory artifact. The engine, sweep, checker, and async rows all run
// through the public iabc facade — the numbers include the facade's option
// dispatch, so they measure what external callers actually get. With
// -compare it additionally diffs the fresh numbers against a committed
// baseline artifact and fails on large regressions — the trend gate CI
// runs as a non-blocking job.
//
// On a multi-core host the scenarios8-workers row records the measured
// parallel speedup over the single-worker scenarios8 row in its extras
// (speedup_vs_scenarios8, workers) — the scaling measurement EXPERIMENTS.md
// documents; a single-core host omits it, since both rows necessarily run
// on the same core there.
func cmdBench(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	out := fs.String("out", "", "artifact path (default BENCH_<yyyy-mm-dd>.json; - for stdout only)")
	notes := fs.String("notes", "", "free-form note recorded in the artifact (e.g. before/after context)")
	short := fs.Bool("short", false, "skip the slow exact-checker benchmark (CI smoke mode)")
	compare := fs.String("compare", "", "baseline artifact to diff against; exits nonzero on regression")
	maxRegress := fs.Float64("max-regress", 0.25, "relative ns/op (and allocs/op) slowdown tolerated by -compare")
	if err := fs.Parse(args); err != nil {
		return err
	}
	// Load the baseline before measuring so a bad path fails fast.
	var baseline *BenchArtifact
	if *compare != "" {
		var err error
		if baseline, err = loadBenchArtifact(*compare); err != nil {
			return err
		}
	}

	art := BenchArtifact{
		Date:  time.Now().UTC().Format(time.RFC3339),
		Go:    runtime.Version(),
		Notes: *notes,
	}
	run := func(name string, fn func(b *testing.B)) {
		r := testing.Benchmark(fn)
		res := BenchResult{
			Name:        name,
			Iterations:  r.N,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
		}
		if len(r.Extra) > 0 {
			res.Extra = make(map[string]float64, len(r.Extra))
			for k, v := range r.Extra {
				res.Extra[k] = v
			}
		}
		art.Results = append(art.Results, res)
		fmt.Fprintf(stdout, "%-40s %12.1f ns/op %8d B/op %6d allocs/op\n",
			name, res.NsPerOp, res.BytesPerOp, res.AllocsPerOp)
	}
	ctx := context.Background()

	received := make([]core.ValueFrom, 15)
	rng := rand.New(rand.NewSource(1))
	for i := range received {
		received[i] = core.ValueFrom{From: i, Value: rng.Float64()}
	}
	run("trimmed-mean/reference/indeg=15,f=3", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := (core.TrimmedMean{}).Update(0.5, received, 3); err != nil {
				b.Fatal(err)
			}
		}
	})
	run("trimmed-mean/fast/indeg=15,f=3", func(b *testing.B) {
		var scratch core.Scratch
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := (core.TrimmedMean{}).UpdateInto(&scratch, 0.5, received, 3); err != nil {
				b.Fatal(err)
			}
		}
	})

	const (
		n, f, rounds = 16, 2, 100
	)
	g, err := iabc.CoreNetwork(n, f)
	if err != nil {
		return err
	}
	initial := make([]float64, n)
	for i := range initial {
		initial[i] = float64(i)
	}
	engOpts := func(extra ...iabc.Option) []iabc.Option {
		return append([]iabc.Option{
			iabc.WithF(f),
			iabc.WithFaulty(0, 1),
			iabc.WithInitial(initial),
			iabc.WithAdversary(iabc.Hug{High: true}),
			iabc.WithMaxRounds(rounds),
		}, extra...)
	}
	for _, eng := range []iabc.Engine{iabc.Sequential, iabc.ConcurrentPool, iabc.Matrix} {
		eng := eng
		// Options are pure setters, so one slice serves every iteration —
		// the loop measures the engine, not option-closure construction.
		opts := engOpts(iabc.WithEngine(eng))
		run("engine/"+eng.String()+"/core_n16_f2", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				out, err := iabc.Simulate(ctx, g, opts...)
				if err != nil {
					b.Fatal(err)
				}
				if out.Rounds != rounds {
					b.Fatalf("rounds = %d", out.Rounds)
				}
			}
			b.ReportMetric(float64(rounds)*float64(b.N)/b.Elapsed().Seconds(), "rounds/s")
		})
	}
	const batch = 64
	extras := make([][]float64, batch)
	for x := range extras {
		v := make([]float64, n)
		for i := range v {
			v[i] = float64(i + x)
		}
		extras[x] = v
	}
	batchOpts := engOpts(iabc.WithEngine(iabc.Matrix), iabc.WithExtras(extras))
	run("engine/matrix-batch64/core_n16_f2", func(b *testing.B) {
		b.ReportAllocs()
		scens := []iabc.Scenario{{Name: "base"}}
		for i := 0; i < b.N; i++ {
			res, err := iabc.Sweep(ctx, g, scens, batchOpts...)
			if err != nil {
				b.Fatal(err)
			}
			if len(res.Finals[0]) != batch {
				b.Fatalf("finals = %d", len(res.Finals[0]))
			}
		}
		b.ReportMetric(float64(rounds)*batch*float64(b.N)/b.Elapsed().Seconds(), "vecrounds/s")
	})
	// The same batch on a long horizon: 20× the rounds through the streaming
	// replay, whose program memory stays O(edges) however far the horizon
	// extends. The vecrounds/s metric is comparable to matrix-batch64; the
	// row exists so the trend gate catches regressions that only show up
	// when the replay is stream-bound rather than setup-bound.
	const streamRounds = 2000
	streamOpts := engOpts(iabc.WithEngine(iabc.Matrix), iabc.WithExtras(extras),
		iabc.WithMaxRounds(streamRounds))
	run("engine/matrix-stream-batch64/core_n16_f2", func(b *testing.B) {
		b.ReportAllocs()
		scens := []iabc.Scenario{{Name: "base"}}
		for i := 0; i < b.N; i++ {
			res, err := iabc.Sweep(ctx, g, scens, streamOpts...)
			if err != nil {
				b.Fatal(err)
			}
			if len(res.Finals[0]) != batch {
				b.Fatalf("finals = %d", len(res.Finals[0]))
			}
		}
		b.ReportMetric(float64(streamRounds)*batch*float64(b.N)/b.Elapsed().Seconds(), "vecrounds/s")
	})

	// Steady-state round loop with an EdgeWriter adversary: MaxRounds is b.N
	// so one op is one round and setup amortizes away — allocs/op must
	// report 0 (doc.go invariant 3).
	for _, eng := range []iabc.Engine{iabc.Sequential, iabc.Matrix} {
		eng := eng
		run("engine/"+eng.String()+"-steady/core_n16_f2", func(b *testing.B) {
			b.ReportAllocs()
			out, err := iabc.Simulate(ctx, g,
				engOpts(iabc.WithEngine(eng), iabc.WithMaxRounds(b.N))...)
			if err != nil {
				b.Fatal(err)
			}
			if out.Rounds != b.N {
				b.Fatalf("rounds = %d, want %d", out.Rounds, b.N)
			}
		})
	}

	// Scenario batching: the same point re-simulated under 8 adversaries
	// with the engine setup shared — the sweep dimension the matrix replay
	// cannot vary.
	scenAdvs := []iabc.Strategy{
		iabc.Hug{High: true}, iabc.Hug{},
		iabc.Extremes{Amplitude: 50},
		iabc.Fixed{Value: 1e6}, iabc.Fixed{Value: -1e6},
		&iabc.Insider{High: true}, &iabc.Insider{},
		iabc.Conforming{},
	}
	scens := make([]iabc.Scenario, len(scenAdvs))
	for i, s := range scenAdvs {
		scens[i] = iabc.Scenario{Adversary: s}
	}
	seqSweepOpts := engOpts()
	run("engine/scenarios8/core_n16_f2", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := iabc.Sweep(ctx, g, scens, seqSweepOpts...)
			if err != nil {
				b.Fatal(err)
			}
			if len(res.Traces) != len(scens) {
				b.Fatalf("traces = %d", len(res.Traces))
			}
		}
		b.ReportMetric(float64(rounds)*float64(len(scens))*float64(b.N)/b.Elapsed().Seconds(), "rounds/s")
	})
	// The same sweep fanned across GOMAXPROCS workers, one private engine
	// per worker — the multi-core scenario path behind `sweep -workers`.
	parSweepOpts := engOpts(iabc.WithWorkers(0))
	run("engine/scenarios8-workers/core_n16_f2", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := iabc.Sweep(ctx, g, scens, parSweepOpts...)
			if err != nil {
				b.Fatal(err)
			}
			if len(res.Traces) != len(scens) {
				b.Fatalf("traces = %d", len(res.Traces))
			}
		}
		b.ReportMetric(float64(rounds)*float64(len(scens))*float64(b.N)/b.Elapsed().Seconds(), "rounds/s")
	})
	// Both batching dimensions composed: 8 adversary scenarios, each
	// recorded once on the matrix engine and replayed over 64 extra initial
	// vectors. The metric counts replayed vector-rounds only, comparable to
	// matrix-batch64.
	comboOpts := engOpts(iabc.WithEngine(iabc.Matrix), iabc.WithWorkers(0), iabc.WithExtras(extras))
	run("engine/matrix-scenarios8-batch64/core_n16_f2", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := iabc.Sweep(ctx, g, scens, comboOpts...)
			if err != nil {
				b.Fatal(err)
			}
			if len(res.Finals) != len(scens) {
				b.Fatalf("finals = %d", len(res.Finals))
			}
		}
		b.ReportMetric(float64(rounds)*float64(len(scens))*batch*float64(b.N)/b.Elapsed().Seconds(), "vecrounds/s")
	})
	// The multi-core scaling measurement: speedup of the worker-fanned
	// sweep over the single-worker one. Only recorded when there is more
	// than one CPU — on a single core the ratio is ≈ 1 by construction and
	// would pollute the artifact's trend.
	if runtime.NumCPU() > 1 {
		var seqNs float64
		for _, r := range art.Results {
			if r.Name == "engine/scenarios8/core_n16_f2" {
				seqNs = r.NsPerOp
			}
		}
		for i := range art.Results {
			r := &art.Results[i]
			if r.Name == "engine/scenarios8-workers/core_n16_f2" && seqNs > 0 {
				if r.Extra == nil {
					r.Extra = map[string]float64{}
				}
				r.Extra["speedup_vs_scenarios8"] = seqNs / r.NsPerOp
				r.Extra["workers"] = float64(runtime.GOMAXPROCS(0))
				fmt.Fprintf(stdout, "%-40s %12.2fx speedup over scenarios8 (%d CPUs)\n",
					"engine/scenarios8-workers (parallel)", seqNs/r.NsPerOp, runtime.NumCPU())
			}
		}
	}

	ag, err := iabc.Complete(7)
	if err != nil {
		return err
	}
	run("async/complete_n7_f1", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			out, err := iabc.Simulate(ctx, ag,
				iabc.WithEngine(iabc.Async),
				iabc.WithF(1),
				iabc.WithFaulty(6),
				iabc.WithInitial([]float64{0, 1, 2, 3, 4, 5, 6}),
				iabc.WithAdversary(iabc.Extremes{Amplitude: 10}),
				iabc.WithDelays(&iabc.UniformDelay{B: 2, Rng: rand.New(rand.NewSource(int64(i)))}),
				iabc.WithMaxRounds(100),
				iabc.WithEpsilon(1e-6),
			)
			if err != nil {
				b.Fatal(err)
			}
			if !out.Converged {
				b.Fatal("did not converge")
			}
		}
	})

	// The event-loop steady state behind the async row: constant delays, no
	// epsilon stop, an EdgeWriter adversary — the run is all calendar-queue
	// push/pop and quorum bookkeeping, with no convergence check ending it
	// early. One op is a full 400-round run; the events/s metric counts
	// delivered messages.
	run("async/calendar-queue/complete_n7_f1", func(b *testing.B) {
		b.ReportAllocs()
		var delivered float64
		for i := 0; i < b.N; i++ {
			out, err := iabc.Simulate(ctx, ag,
				iabc.WithEngine(iabc.Async),
				iabc.WithF(1),
				iabc.WithFaulty(6),
				iabc.WithInitial([]float64{0, 1, 2, 3, 4, 5, 6}),
				iabc.WithAdversary(iabc.Fixed{Value: 1e4}),
				iabc.WithDelays(iabc.FixedDelay{D: 1}),
				iabc.WithMaxRounds(400),
			)
			if err != nil {
				b.Fatal(err)
			}
			if out.Converged {
				b.Fatal("steady-state run unexpectedly converged")
			}
			delivered += float64(out.AsyncTrace.Deliveries)
		}
		b.ReportMetric(delivered/b.Elapsed().Seconds(), "events/s")
	})

	// Raw in-process transport throughput: one op is one message through the
	// bounded per-node queue, streamed from a producer goroutine — the floor
	// under every cluster message the actor runtime sends. The queue is
	// deeper than the default so the row measures channel hand-off, not
	// producer/consumer lockstep.
	run("transport/inproc/stream", func(b *testing.B) {
		b.ReportAllocs()
		tr := iabc.NewInprocTransport(2, 1024)
		defer tr.Close()
		rc := tr.Recv(1)
		go func() {
			for i := 0; i < b.N; i++ {
				if tr.Send(ctx, 0, 1, iabc.Msg{Round: i, Value: 1, Seq: uint64(i)}) != nil {
					return
				}
			}
		}()
		for i := 0; i < b.N; i++ {
			<-rc
		}
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "msgs/s")
	})

	// Distributed dispatch floor: a loopback coordinator with two in-process
	// workers leasing no-op jobs — one op is one job granted, reported, and
	// acknowledged through the framed TCP job protocol. The jobs/s metric is
	// the scheduling ceiling under `iabc coordinate`; real scans amortize one
	// job across a whole fault-set range.
	run("distrib/dispatch/loopback-2workers", func(b *testing.B) {
		coord := distrib.NewCoordinator(distrib.Options{})
		if err := coord.Listen("127.0.0.1:0"); err != nil {
			b.Fatal(err)
		}
		wctx, cancel := context.WithCancel(ctx)
		var wg sync.WaitGroup
		for w := 0; w < 2; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				distrib.Work(wctx, coord.Addr(), distrib.WorkerOptions{})
			}()
		}
		defer func() {
			coord.Close()
			cancel()
			wg.Wait()
		}()
		b.ReportAllocs()
		b.ResetTimer()
		if err := coord.DispatchNoop(ctx, int64(b.N)); err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "jobs/s")
	})

	// Exact checker rows. Degree-bound pruning turned core_n13_f4 from the
	// suite's slowest row (~10 ms/op unpruned) into a sub-millisecond one,
	// so it and the maxf scan now run in -short CI smoke too and sit under
	// the -compare trend gate on every run.
	cg, err := iabc.CoreNetwork(13, 4)
	if err != nil {
		return err
	}
	run("condition/check/core_n13_f4", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := iabc.Check(ctx, cg, 4)
			if err != nil {
				b.Fatal(err)
			}
			if !res.Satisfied {
				b.Fatal("core(13,4) should satisfy")
			}
		}
	})
	mg, err := iabc.CoreNetwork(16, 2)
	if err != nil {
		return err
	}
	run("condition/maxf/core_n16_f2", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			maxF, err := iabc.MaxF(ctx, mg)
			if err != nil {
				b.Fatal(err)
			}
			if maxF != 2 {
				b.Fatalf("MaxF = %d", maxF)
			}
		}
	})
	if !*short {
		// Degree-regular circulants at small threshold admit most candidates,
		// so the degree bound prunes little here; the symmetry reduction
		// scans one fault set per rotation orbit, so this row tracks the
		// insulation kernel on canonical fault sets only.
		hg, err := iabc.Chord(16, 2)
		if err != nil {
			return err
		}
		run("condition/check/chord_n16_f2", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := iabc.Check(ctx, hg, 2); err != nil {
					b.Fatal(err)
				}
			}
		})
	}

	path := *out
	if path != "-" {
		if path == "" {
			path = "BENCH_" + time.Now().UTC().Format("2006-01-02") + ".json"
		}
		data, err := json.MarshalIndent(&art, "", "  ")
		if err != nil {
			return err
		}
		data = append(data, '\n')
		if err := os.WriteFile(path, data, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote %s\n", path)
	}

	if baseline != nil {
		regs := compareArtifacts(&art, baseline, *maxRegress)
		if len(regs) > 0 {
			for _, r := range regs {
				fmt.Fprintf(stdout, "REGRESSION: %s\n", r)
			}
			return fmt.Errorf("cli: %d benchmark regression(s) vs %s (threshold +%.0f%%)",
				len(regs), *compare, *maxRegress*100)
		}
		fmt.Fprintf(stdout, "no regressions vs %s (threshold +%.0f%%)\n", *compare, *maxRegress*100)
	}
	return nil
}

// loadBenchArtifact reads a BENCH_<date>.json trajectory file.
func loadBenchArtifact(path string) (*BenchArtifact, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("cli: reading baseline: %w", err)
	}
	var art BenchArtifact
	if err := json.Unmarshal(data, &art); err != nil {
		return nil, fmt.Errorf("cli: parsing baseline %s: %w", path, err)
	}
	return &art, nil
}

// allocSlack absorbs small absolute allocation jitter (trace growth past the
// preallocated window, map resizing) so the relative threshold only fires on
// real regressions; a 0→2 allocs/op change is noise, 1000→1300 is not.
const allocSlack = 16

// compareArtifacts diffs fresh results against a baseline by benchmark name
// and returns one description per regression beyond maxRegress (relative).
// Benchmarks present on only one side are skipped — the suite grows across
// PRs and a trend gate must not punish new coverage.
func compareArtifacts(fresh, baseline *BenchArtifact, maxRegress float64) []string {
	base := make(map[string]BenchResult, len(baseline.Results))
	for _, r := range baseline.Results {
		base[r.Name] = r
	}
	var regs []string
	for _, r := range fresh.Results {
		old, ok := base[r.Name]
		if !ok {
			continue
		}
		if r.NsPerOp > old.NsPerOp*(1+maxRegress) {
			regs = append(regs, fmt.Sprintf("%s: %.1f ns/op vs baseline %.1f (%+.1f%%)",
				r.Name, r.NsPerOp, old.NsPerOp, (r.NsPerOp/old.NsPerOp-1)*100))
		}
		if r.AllocsPerOp > old.AllocsPerOp+allocSlack &&
			float64(r.AllocsPerOp) > float64(old.AllocsPerOp)*(1+maxRegress) {
			regs = append(regs, fmt.Sprintf("%s: %d allocs/op vs baseline %d",
				r.Name, r.AllocsPerOp, old.AllocsPerOp))
		}
	}
	return regs
}
