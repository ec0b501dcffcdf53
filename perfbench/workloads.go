package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"sync"
	"time"

	"iabc"
	"iabc/internal/condition"
	"iabc/internal/distrib"
)

// env is what a workload's set-up receives: the seed every input derives
// from, the sizes, a private scratch directory, and an optional injected
// fault for the benchmark's own tests.
type env struct {
	seed   int64
	size   sizes
	dir    string
	inject string // "", injectWrongVerdict or injectStall
}

const (
	injectWrongVerdict = "wrong-verdict"
	injectStall        = "stall"
)

// sizes fixes every workload input that is not derived from the seed.
type sizes struct {
	coreN, coreF, coreWant    int
	chordN, chordF, chordWant int
	sweepN                    int
	sweepAdvs                 []string
	sweepInits, sweepRounds   int
	sweepBatch                int
	clusterN                  int
	tcpRounds, lossyRounds    int
	noopJobs                  int64
	stallAfter                time.Duration
}

// fullSizes are the measured workloads; see README.md for why each exists.
var fullSizes = sizes{
	coreN: 19, coreF: 6, coreWant: 6,
	chordN: 19, chordF: 2, chordWant: 2,
	sweepN: 16,
	sweepAdvs: []string{"extremes", "fixed-high", "fixed-low", "silent",
		"noise", "hug-high", "insider-high", "insider-low"},
	sweepInits: 4, sweepRounds: 2000, sweepBatch: 64,
	clusterN: 16, tcpRounds: 50, lossyRounds: 300,
	noopJobs:   2000,
	stallAfter: 5 * time.Second,
}

// smokeSizes run every code path of every workload in well under a second.
var smokeSizes = sizes{
	coreN: 10, coreF: 3, coreWant: 3,
	chordN: 10, chordF: 2, chordWant: 1,
	sweepN:     8,
	sweepAdvs:  []string{"extremes", "noise"},
	sweepInits: 2, sweepRounds: 50, sweepBatch: 4,
	clusterN: 8, tcpRounds: 10, lossyRounds: 20,
	noopJobs:   50,
	stallAfter: 300 * time.Millisecond,
}

// bench is one set-up workload.
type bench interface {
	// op runs one operation — one MaxF call, one Sweep call, or one Cluster
	// run — and verifies its output. It returns the cost of the call alone
	// (preparation and verification excluded) and the verification error,
	// if any. tr is nil in untraced ops.
	op(ctx context.Context, tr *tracer) (cost, error)
	// layers runs the traced-only measurements and fills the per-layer
	// metrics; r carries the op walls measured so far.
	layers(ctx context.Context, tr *tracer, r *runStats) error
	close()
}

// workload names one benchmark input set and how to set it up.
type workload struct {
	name  string
	setup func(e *env) (bench, error)
}

var workloads = []workload{
	{"maxf-core", func(e *env) (bench, error) { return newScanBench(e, false) }},
	{"coordinate-chord", func(e *env) (bench, error) { return newScanBench(e, true) }},
	{"sweep-matrix", newSweepBench},
	{"cluster-tcp", func(e *env) (bench, error) { return newClusterBench(e, true) }},
	{"cluster-lossy", func(e *env) (bench, error) { return newClusterBench(e, false) }},
}

// —— maxf-core and coordinate-chord: the exact Theorem-1 scan ——

type scanBench struct {
	e      *env
	g      *iabc.Graph
	want   int
	dist   bool
	opDirs int

	ref            *iabc.MaxFStats
	witnessChecked bool

	// Traced-op measurements.
	store          storeStats
	fsGaps         histogram
	checkMax       time.Duration
	firstEvent     []float64 // ms
	reports        int64
	progressGapMax time.Duration
	tracedOps      int

	// The long-lived coordinator of traced distributed ops.
	coord       *distrib.Coordinator
	coordBase   distrib.Stats
	stopWorkers context.CancelFunc
	workers     sync.WaitGroup
}

func newScanBench(e *env, dist bool) (*scanBench, error) {
	b := &scanBench{e: e, dist: dist}
	var err error
	if dist {
		b.g, err = iabc.Chord(e.size.chordN, e.size.chordF)
		b.want = e.size.chordWant
	} else {
		b.g, err = iabc.CoreNetwork(e.size.coreN, e.size.coreF)
		b.want = e.size.coreWant
	}
	if err != nil {
		return nil, err
	}
	return b, os.MkdirAll(e.dir, 0o755)
}

// freshDir returns a state directory no earlier op used, so every call
// scans from scratch instead of hitting the verdict cache.
func (b *scanBench) freshDir() string {
	b.opDirs++
	return filepath.Join(b.e.dir, fmt.Sprintf("op%d", b.opDirs))
}

func (b *scanBench) op(ctx context.Context, tr *tracer) (cost, error) {
	dir := b.freshDir()
	defer os.RemoveAll(dir)
	var (
		best  int
		stats iabc.MaxFStats
		spent cost
		err   error
	)
	if tr == nil {
		opts := []iabc.Option{iabc.WithStateDir(dir)}
		if b.dist {
			opts = append(opts, iabc.WithWorkerPool(2))
		}
		sw := startWatch()
		best, stats, err = iabc.MaxFWithStats(ctx, b.g, opts...)
		spent = sw.stop()
	} else {
		best, stats, spent, err = b.tracedScan(ctx, tr, dir)
	}
	if err != nil {
		return spent, err
	}
	if b.e.inject == injectWrongVerdict {
		best++
	}
	return spent, b.verify(ctx, best, stats)
}

// scanObserver turns the scan's event stream into check spans, fault-set
// gaps and report gaps. Calls are serialized by the caller.
type scanObserver struct {
	b         *scanBench
	tr        *tracer
	callStart int64
	last      int64 // previous event of any kind
	lastCheck int64 // previous check boundary
	events    int
}

func (o *scanObserver) observe(e iabc.Event) {
	now := o.tr.now()
	if o.events == 0 {
		o.b.firstEvent = append(o.b.firstEvent, float64(now-o.callStart)/1e6)
	}
	o.events++
	gap := time.Duration(now - o.last)
	o.last = now
	switch e.Kind {
	case iabc.EventCheckProgress:
		if o.b.dist {
			// Distributed progress arrives once per worker report.
			o.b.reports++
			o.b.progressGapMax = max(o.b.progressGapMax, gap)
		} else {
			o.b.fsGaps.Add(gap)
		}
	case iabc.EventCheckDone:
		o.tr.add("condition.check", levelUnit, o.lastCheck, now)
		o.b.checkMax = max(o.b.checkMax, time.Duration(now-o.lastCheck))
		o.lastCheck = now
	}
}

func (b *scanBench) tracedScan(ctx context.Context, tr *tracer, dir string) (int, iabc.MaxFStats, cost, error) {
	inner, err := iabc.NewDirBackend(dir)
	if err != nil {
		return 0, iabc.MaxFStats{}, cost{}, err
	}
	store := &timedBackend{inner: inner, tr: tr, st: &b.store}
	if b.dist && b.coord == nil {
		if err := b.startCoordinator(); err != nil {
			return 0, iabc.MaxFStats{}, cost{}, err
		}
	}
	b.tracedOps++
	start := tr.now()
	obs := &scanObserver{b: b, tr: tr, callStart: start, last: start, lastCheck: start}
	var (
		best  int
		stats iabc.MaxFStats
	)
	sw := startWatch()
	if b.dist {
		// The facade's WithWorkerPool path, with the coordinator held here
		// so its Stats are readable.
		var mu sync.Mutex
		emit := func(e iabc.Event) {
			mu.Lock()
			defer mu.Unlock()
			obs.observe(e)
		}
		best, stats, err = b.coord.MaxF(ctx, b.g, condition.MaxFOptions{
			Store: store,
			OnCheck: func(f int, res condition.Result) {
				emit(iabc.Event{Kind: iabc.EventCheckDone, F: f, Satisfied: res.Satisfied})
			},
			OnProgress: func(f int, p condition.Progress) {
				emit(iabc.Event{Kind: iabc.EventCheckProgress, F: f, Done: p.FaultSetsDone, Total: p.FaultSetsTotal})
			},
		})
	} else {
		best, stats, err = iabc.MaxFWithStats(ctx, b.g, iabc.WithBackend(store), iabc.WithObserver(obs.observe))
	}
	spent := sw.stop()
	name := "iabc.MaxFWithStats"
	if b.dist {
		name = "distrib.MaxF"
	}
	tr.add(name, levelCall, start, tr.now())
	return best, stats, spent, err
}

// startCoordinator binds a loopback coordinator and joins two workers, as
// WithWorkerPool(2) does inside each facade call.
func (b *scanBench) startCoordinator() error {
	coord := distrib.NewCoordinator(distrib.Options{})
	if err := coord.Listen("127.0.0.1:0"); err != nil {
		return err
	}
	ctx, cancel := context.WithCancel(context.Background())
	for i := 0; i < 2; i++ {
		b.workers.Add(1)
		go func() {
			defer b.workers.Done()
			distrib.Work(ctx, coord.Addr(), distrib.WorkerOptions{})
		}()
	}
	b.coord, b.stopWorkers, b.coordBase = coord, cancel, coord.Stats()
	return nil
}

func (b *scanBench) verify(ctx context.Context, best int, stats iabc.MaxFStats) error {
	if best != b.want {
		return fmt.Errorf("maxf = %d, want %d", best, b.want)
	}
	if b.ref == nil {
		b.ref = &stats
	} else if stats != *b.ref {
		return fmt.Errorf("work counters differ between ops: %+v, first op %+v", stats, *b.ref)
	}
	if b.witnessChecked {
		return nil
	}
	f := best + 1
	res, err := iabc.Check(ctx, b.g, f)
	if err != nil {
		return err
	}
	if res.Satisfied || res.Witness == nil {
		return fmt.Errorf("check at f=%d is satisfied; maxf=%d is not maximal", f, best)
	}
	if err := res.Witness.Verify(b.g, f, iabc.SyncThreshold(f)); err != nil {
		return fmt.Errorf("witness at f=%d: %w", f, err)
	}
	b.witnessChecked = true
	return nil
}

func (b *scanBench) layers(ctx context.Context, tr *tracer, r *runStats) error {
	ops := float64(max(b.tracedOps, 1))
	if b.ref != nil {
		s := *b.ref
		r.set("condition.candidates", float64(s.CandidatesExamined))
		r.set("condition.pruned", float64(s.CandidatesPruned))
		r.set("condition.memo_hits", float64(s.MemoHits))
		r.set("condition.fault_sets", float64(s.FaultSetsExamined))
		r.set("condition.pruned_ratio", ratio(float64(s.CandidatesPruned), float64(s.CandidatesExamined)))
		r.set("condition.tested_per_s", ratio(float64(s.CandidatesExamined-s.CandidatesPruned), median(r.traced)))
	}
	r.set("condition.check_max_s", b.checkMax.Seconds())
	r.set("condition.fault_set_p50_us", float64(b.fsGaps.Quantile(0.5))/1e3)
	r.set("condition.fault_set_p99_us", float64(b.fsGaps.Quantile(0.99))/1e3)

	st := &b.store
	st.mu.Lock()
	r.set("statestore.writes", float64(st.writes)/ops)
	r.set("statestore.write_bytes", float64(st.bytes)/ops)
	r.set("statestore.write_s", float64(st.writeNS)/1e9/ops)
	r.set("statestore.write_p99_us", quantile(st.writeDurs, 0.99)*1e6)
	r.set("statestore.reads", float64(st.reads)/ops)
	r.set("statestore.read_s", float64(st.readNS)/1e9/ops)
	r.set("statestore.deletes", float64(st.deletes)/ops)
	r.set("statestore.lists", float64(st.lists)/ops)
	r.set("statestore.errors", float64(st.errs)/ops)
	r.set("statestore.busy_share", ratio(float64(st.writeNS+st.readNS+st.otherNS)/1e9, sum(r.traced)))
	st.mu.Unlock()
	r.set("iabc.first_event_ms", median(b.firstEvent))

	if !b.dist {
		return nil
	}
	// Traced ops reuse one long-lived coordinator whose workers have
	// joined, while each untraced op binds and joins its own: the two walls
	// differ by more than tracing.
	r.set("trace.overhead_ratio", 0)
	s := b.coord.Stats()
	r.set("distrib.jobs_granted", float64(s.JobsGranted-b.coordBase.JobsGranted)/ops)
	r.set("distrib.jobs_stolen", float64(s.JobsStolen-b.coordBase.JobsStolen)/ops)
	r.set("distrib.leases_requeued", float64(s.LeasesRequeued-b.coordBase.LeasesRequeued)/ops)
	r.set("distrib.stale_reports", float64(s.StaleReports-b.coordBase.StaleReports)/ops)
	r.set("distrib.reports", float64(b.reports)/ops)
	r.set("distrib.progress_gap_max_ms", float64(b.progressGapMax)/1e6)

	t0 := time.Now()
	if err := b.coord.DispatchNoop(ctx, b.e.size.noopJobs); err != nil {
		return fmt.Errorf("dispatch noop: %w", err)
	}
	r.set("distrib.noop_jobs_per_s", float64(b.e.size.noopJobs)/time.Since(t0).Seconds())

	// One facade op with a single worker: the second worker's contribution.
	dir := b.freshDir()
	defer os.RemoveAll(dir)
	spent, err := r.timeOp(func() (cost, error) {
		start := tr.now()
		sw := startWatch()
		best, stats, err := iabc.MaxFWithStats(ctx, b.g, iabc.WithStateDir(dir), iabc.WithWorkerPool(1))
		spent := sw.stop()
		tr.add("iabc.MaxFWithStats", levelCall, start, tr.now())
		if err != nil {
			return spent, err
		}
		return spent, b.verify(ctx, best, stats)
	})
	if err == nil {
		r.set("distrib.speedup_2w", ratio(spent.wall.Seconds(), median(r.untraced)))
	}
	return nil
}

func (b *scanBench) close() {
	if b.coord != nil {
		b.coord.Close()
		b.stopWorkers()
		b.workers.Wait()
	}
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// —— sweep-matrix: round-program recording plus SoA replay ——

type sweepBench struct {
	e     *env
	g     *iabc.Graph
	base  []float64
	inits [][]float64

	ref, refTraces [32]byte
	hasRef         bool

	firstEvent []float64 // ms
	rounds     int64
	scenarios  int
}

// seededVector draws n values uniform in [0, 100) from rng.
func seededVector(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.Float64() * 100
	}
	return v
}

func newSweepBench(e *env) (bench, error) {
	g, err := iabc.Chord(e.size.sweepN, 2)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(e.seed))
	b := &sweepBench{e: e, g: g, base: seededVector(rng, g.N())}
	for k := 0; k < e.size.sweepInits; k++ {
		b.inits = append(b.inits, seededVector(rng, g.N()))
	}
	// Resolve every adversary once so a bad name fails set-up, not an op.
	if _, err := b.scenarioList(); err != nil {
		return nil, err
	}
	return b, nil
}

// scenarioList builds adversaries × initial vectors with fresh adversary
// instances: stateful strategies (seeded noise) must not carry state from
// one op into the next, or ops would not be bit-identical.
func (b *sweepBench) scenarioList() ([]iabc.Scenario, error) {
	var out []iabc.Scenario
	for _, name := range b.e.size.sweepAdvs {
		for k, init := range b.inits {
			strat, err := iabc.AdversaryByName(name, b.e.seed+int64(k))
			if err != nil {
				return nil, err
			}
			out = append(out, iabc.Scenario{Name: fmt.Sprintf("%s/%d", name, k), Adversary: strat, Initial: init})
		}
	}
	return out, nil
}

func (b *sweepBench) options(workers, batch int, obs iabc.Observer) []iabc.Option {
	opts := []iabc.Option{
		iabc.WithF(2), iabc.WithFaulty(0, 1), iabc.WithInitial(b.base),
		iabc.WithEngine(iabc.Matrix), iabc.WithBatch(batch), iabc.WithWorkers(workers),
		iabc.WithMaxRounds(b.e.size.sweepRounds), iabc.WithEpsilon(0), iabc.WithSeed(b.e.seed),
	}
	if obs != nil {
		opts = append(opts, iabc.WithObserver(obs))
	}
	return opts
}

// sweep runs one Sweep call and returns its result and cost.
func (b *sweepBench) sweep(ctx context.Context, workers, batch int, obs iabc.Observer) (*iabc.SweepResult, cost, error) {
	scen, err := b.scenarioList()
	if err != nil {
		return nil, cost{}, err
	}
	opts := b.options(workers, batch, obs)
	sw := startWatch()
	res, err := iabc.Sweep(ctx, b.g, scen, opts...)
	return res, sw.stop(), err
}

// digest hashes the traces alone and the traces plus replay finals.
func digest(res *iabc.SweepResult) (traces, all [32]byte) {
	h := sha256.New()
	var buf [8]byte
	put := func(x float64) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(x))
		h.Write(buf[:])
	}
	for _, tr := range res.Traces {
		put(float64(tr.Rounds))
		for _, vs := range [][]float64{tr.U, tr.Mu, tr.Final} {
			for _, x := range vs {
				put(x)
			}
		}
	}
	copy(traces[:], h.Sum(nil))
	for _, fs := range res.Finals {
		for _, v := range fs {
			for _, x := range v {
				put(x)
			}
		}
	}
	copy(all[:], h.Sum(nil))
	return traces, all
}

// check verifies validity on every trace and bit-identity with the first
// op; tracesOnly compares the primary traces alone (a batch-0 sweep).
func (b *sweepBench) check(res *iabc.SweepResult, tracesOnly bool) error {
	for i, tr := range res.Traces {
		if r, bad := tr.ValidityViolation(1e-9); bad {
			return fmt.Errorf("scenario %d violates validity at round %d", i, r)
		}
	}
	traces, all := digest(res)
	if !b.hasRef {
		b.refTraces, b.ref, b.hasRef = traces, all, true
	}
	if traces != b.refTraces || (!tracesOnly && all != b.ref) {
		return fmt.Errorf("sweep output differs from the first op's")
	}
	return nil
}

func (b *sweepBench) op(ctx context.Context, tr *tracer) (cost, error) {
	var obs iabc.Observer
	var start int64
	if tr != nil {
		start = tr.now()
		seen := false
		obs = func(iabc.Event) {
			if !seen {
				seen = true
				b.firstEvent = append(b.firstEvent, float64(tr.now()-start)/1e6)
			}
		}
	}
	res, spent, err := b.sweep(ctx, 2, b.e.size.sweepBatch, obs)
	if tr != nil {
		tr.add("iabc.Sweep", levelCall, start, tr.now())
	}
	if err != nil {
		return spent, err
	}
	if tr != nil {
		b.rounds, b.scenarios = 0, len(res.Traces)
		for _, t := range res.Traces {
			b.rounds += int64(t.Rounds)
		}
	}
	return spent, b.check(res, false)
}

func (b *sweepBench) layers(ctx context.Context, tr *tracer, r *runStats) error {
	wall2 := median(r.untraced)
	r.set("sim.scenarios", float64(b.scenarios))
	r.set("sim.rounds", float64(b.rounds))
	r.set("sim.vecrounds_per_s", ratio(float64(b.rounds)*float64(1+b.e.size.sweepBatch), wall2))
	r.set("iabc.first_event_ms", median(b.firstEvent))

	// A 1-worker repeat: scenarios run in index order, so the gaps between
	// EventScenarioDone events are scenario durations.
	var durs []float64
	one, err := r.timeOp(func() (cost, error) {
		start := tr.now()
		last := start
		res, spent, err := b.sweep(ctx, 1, b.e.size.sweepBatch, func(e iabc.Event) {
			now := tr.now()
			tr.add("sim.scenario", levelUnit, last, now)
			durs = append(durs, float64(now-last)/1e6)
			last = now
		})
		tr.add("iabc.Sweep", levelCall, start, tr.now())
		if err != nil {
			return spent, err
		}
		return spent, b.check(res, false)
	})
	if err == nil {
		r.set("sim.scenario_p50_ms", median(durs))
		r.set("sim.scenario_max_ms", quantile(durs, 1))
		r.set("sim.worker_speedup", ratio(one.wall.Seconds(), wall2))
	}
	// The same sweep without the replay dimension.
	noReplay, err := r.timeOp(func() (cost, error) {
		start := tr.now()
		res, spent, err := b.sweep(ctx, 2, 0, nil)
		tr.add("iabc.Sweep", levelCall, start, tr.now())
		if err != nil {
			return spent, err
		}
		return spent, b.check(res, true)
	})
	if err == nil {
		r.set("sim.replay_share", 1-ratio(noReplay.wall.Seconds(), wall2))
	}
	return nil
}

func (b *sweepBench) close() {}

// —— cluster-tcp and cluster-lossy: the live §7 actors ——

type clusterBench struct {
	e       *env
	g       *iabc.Graph
	tcp     bool
	rounds  int
	initial []float64
	ff      []int // fault-free node ids
	lo, hi  float64
	ln      net.Listener // bound at set-up for the first op

	// The observer's preallocated (node, round, time) buffer.
	recNode, recRound []int32
	recT              []int64
	recN              int
	recStart          time.Time

	// Untraced-op samples.
	roundGaps           []float64 // ms
	deliveries, updates int64

	// Traced-op totals.
	tracedOps                int
	t                        iabc.ClusterResult
	lagMax                   int
	sendErrors, chaosDropped int64
	firstEvent               []float64 // ms
}

func newClusterBench(e *env, tcp bool) (*clusterBench, error) {
	n := e.size.clusterN
	g, err := iabc.Complete(n)
	if err != nil {
		return nil, err
	}
	b := &clusterBench{e: e, g: g, tcp: tcp, rounds: e.size.lossyRounds}
	if tcp {
		b.rounds = e.size.tcpRounds
	}
	b.initial = seededVector(rand.New(rand.NewSource(e.seed)), n)
	b.lo, b.hi = math.Inf(1), math.Inf(-1)
	for i := 2; i < n; i++ {
		b.ff = append(b.ff, i)
		b.lo, b.hi = math.Min(b.lo, b.initial[i]), math.Max(b.hi, b.initial[i])
	}
	// Every fault-free node updates once per round; one round of slack.
	capacity := len(b.ff) * (b.rounds + 1)
	b.recNode = make([]int32, capacity)
	b.recRound = make([]int32, capacity)
	b.recT = make([]int64, capacity)
	if tcp {
		if b.ln, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// record is the cluster observer: it only stores (node, round, time).
func (b *clusterBench) record(e iabc.Event) {
	if e.Kind != iabc.EventNodeUpdate || b.recN == len(b.recT) {
		return
	}
	b.recNode[b.recN] = int32(e.Node)
	b.recRound[b.recN] = int32(e.Round)
	b.recT[b.recN] = int64(time.Since(b.recStart))
	b.recN++
}

func (b *clusterBench) chaos() iabc.ChaosConfig {
	cfg := iabc.ChaosConfig{Seed: b.e.seed}
	if !b.tcp {
		cfg.Drop = 0.05
	}
	if b.e.inject == injectStall {
		// A cut that never heals: no side keeps a quorum.
		n := b.g.N()
		a, c := iabc.NewSet(n), iabc.NewSet(n)
		for i := 0; i < n; i++ {
			if i < n/2 {
				a.Add(i)
			} else {
				c.Add(i)
			}
		}
		cfg.Partitions = []iabc.LinkPartition{{A: a, B: c}}
	}
	return cfg
}

func (b *clusterBench) op(ctx context.Context, tr *tracer) (cost, error) {
	opts := []iabc.Option{
		iabc.WithF(2), iabc.WithFaulty(0, 1), iabc.WithInitial(b.initial),
		iabc.WithNamedAdversary("extremes"), iabc.WithSeed(b.e.seed),
		iabc.WithMaxRounds(b.rounds), iabc.WithEpsilon(0),
		iabc.WithStallAfter(b.e.size.stallAfter), iabc.WithObserver(b.record),
	}
	var tcpCfg iabc.TCPTransportConfig
	if b.tcp {
		ln := b.ln
		b.ln = nil
		if ln == nil {
			var err error
			if ln, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
				return cost{}, err
			}
		}
		addrs := make([]string, b.g.N())
		for i := range addrs {
			addrs[i] = ln.Addr().String()
		}
		tcpCfg = iabc.TCPTransportConfig{Addrs: addrs, Listener: ln}
	}
	chaos := b.chaos()
	hasChaos := !b.tcp || len(chaos.Partitions) > 0

	var (
		res   *iabc.ClusterResult
		err   error
		spent cost
		start int64
	)
	b.recN = 0
	if tr == nil {
		if b.tcp {
			opts = append(opts, iabc.WithTCPTransport(tcpCfg))
		}
		if hasChaos {
			opts = append(opts, iabc.WithChaos(chaos))
		}
		sw := startWatch()
		b.recStart = sw.t
		res, err = iabc.Cluster(ctx, b.g, opts...)
		spent = sw.stop()
	} else {
		// The run-owned stack rebuilt by hand, as Cluster builds it, with
		// the timing wrapper under the chaos layer, if any.
		start = tr.now()
		sw := startWatch()
		b.recStart = sw.t
		var inner iabc.Transport
		if b.tcp {
			if inner, err = iabc.NewTCPTransport(tcpCfg); err != nil {
				return cost{}, err
			}
		} else {
			inner = iabc.NewInprocTransport(b.g.N(), 0)
		}
		timed := &timedTransport{Transport: inner, hist: &tr.sendHist}
		var top iabc.Transport = timed
		var ch *iabc.ChaosTransport
		if hasChaos {
			ch = iabc.NewChaosTransport(timed, chaos)
			top = ch
		}
		res, err = iabc.Cluster(ctx, b.g, append(opts, iabc.WithTransport(top))...)
		top.Close()
		spent = sw.stop()
		tr.add("iabc.Cluster", levelCall, start, tr.now())
		b.sendErrors += timed.errors.Load()
		if ch != nil {
			b.chaosDropped += ch.Stats().Dropped
		}
	}
	if err != nil {
		return spent, err
	}
	if err := b.verify(res); err != nil {
		return spent, err
	}
	if tr == nil {
		b.collectGaps()
		b.deliveries += res.Deliveries
		b.updates += res.Updates
		return spent, nil
	}
	b.tracedOps++
	b.t.Updates += res.Updates
	b.t.Deliveries += res.Deliveries
	b.t.Resends += res.Resends
	b.t.Abandoned += res.Abandoned
	b.t.OutDropped += res.OutDropped
	b.t.Restarts += res.Restarts
	b.lagMax = max(b.lagMax, b.roundLag())
	if b.recN > 0 {
		b.firstEvent = append(b.firstEvent, float64(b.recT[0])/1e6)
	}
	return spent, nil
}

// verify fails a run that stalled, left a fault-free node short of the
// round cap, or ended with a fault-free final outside the initial
// fault-free hull.
func (b *clusterBench) verify(res *iabc.ClusterResult) error {
	if res.Stalled {
		return fmt.Errorf("cluster stalled")
	}
	const tol = 1e-9
	for _, i := range b.ff {
		if res.Rounds[i] < b.rounds {
			return fmt.Errorf("node %d stopped at round %d of %d", i, res.Rounds[i], b.rounds)
		}
		if v := res.Final[i]; v < b.lo-tol || v > b.hi+tol {
			return fmt.Errorf("node %d final %v outside the initial hull [%v, %v]", i, v, b.lo, b.hi)
		}
	}
	return nil
}

// collectGaps pools the intervals between consecutive updates of each
// fault-free node.
func (b *clusterBench) collectGaps() {
	last := make(map[int32]int64, len(b.ff))
	for k := 0; k < b.recN; k++ {
		nd, t := b.recNode[k], b.recT[k]
		if prev, ok := last[nd]; ok {
			b.roundGaps = append(b.roundGaps, float64(t-prev)/1e6)
		}
		last[nd] = t
	}
}

// roundLag replays the recorded updates and returns the largest
// fastest-to-slowest fault-free round gap seen at any moment.
func (b *clusterBench) roundLag() int {
	round := make(map[int32]int32, len(b.ff))
	for _, i := range b.ff {
		round[int32(i)] = 0
	}
	lag := 0
	for k := 0; k < b.recN; k++ {
		round[b.recNode[k]] = b.recRound[k]
		lo, hi := int32(math.MaxInt32), int32(0)
		for _, r := range round {
			lo, hi = min(lo, r), max(hi, r)
		}
		lag = max(lag, int(hi-lo))
	}
	return lag
}

// roundStats are the user-visible round metrics of the untraced ops.
func (b *clusterBench) roundStats(r *runStats) {
	r.set("round_p50_ms", quantile(b.roundGaps, 0.5))
	r.set("round_p99_ms", quantile(b.roundGaps, 0.99))
	r.set("round_samples", float64(len(b.roundGaps)))
	r.set("msgs_per_update", ratio(float64(b.deliveries), float64(b.updates)))
}

func (b *clusterBench) layers(ctx context.Context, tr *tracer, r *runStats) error {
	ops := float64(max(b.tracedOps, 1))
	t := b.t
	r.set("node.updates", float64(t.Updates)/ops)
	r.set("node.deliveries", float64(t.Deliveries)/ops)
	r.set("node.resends", float64(t.Resends)/ops)
	r.set("node.abandoned", float64(t.Abandoned)/ops)
	r.set("node.out_dropped", float64(t.OutDropped)/ops)
	r.set("node.restarts", float64(t.Restarts)/ops)
	r.set("node.resends_per_update", ratio(float64(t.Resends), float64(t.Updates)))
	r.set("node.round_lag_max", float64(b.lagMax))
	r.set("transport.sends", float64(tr.sendHist.count.Load())/ops)
	r.set("transport.send_s", float64(tr.sendHist.sum.Load())/1e9/ops)
	r.set("transport.send_p99_us", float64(tr.sendHist.Quantile(0.99))/1e3)
	r.set("transport.send_errors", float64(b.sendErrors)/ops)
	r.set("transport.chaos_dropped", float64(b.chaosDropped)/ops)
	r.set("iabc.first_event_ms", median(b.firstEvent))
	return nil
}

func (b *clusterBench) close() {
	if b.ln != nil {
		b.ln.Close()
	}
}
