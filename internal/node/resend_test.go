package node

import (
	"context"
	"math"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"iabc/internal/adversary"
	"iabc/internal/condition"
	"iabc/internal/graph"
	"iabc/internal/nodeset"
	"iabc/internal/topology"
	"iabc/internal/transport"
)

// rounds returns lo, lo+step, … up to and including hi.
func rounds(lo, hi, step int) []int {
	var rs []int
	for k := lo; (step > 0 && k <= hi) || (step < 0 && k >= hi); k += step {
		rs = append(rs, k)
	}
	return rs
}

// drainRounds empties q without blocking and returns the rounds it held, in
// queue order, skipping the Round −1 filler the test parks there.
func drainRounds(q chan transport.Msg) []int {
	var rs []int
	for {
		select {
		case m := <-q:
			if m.Round >= 0 {
				rs = append(rs, m.Round)
			}
		default:
			return rs
		}
	}
}

// TestResendTargeting pins what one stall-triggered resend pass enqueues on
// each out-edge, on an actor built by hand: no goroutine runs and no timer
// fires, so the pass is a pure function of the deliveries fed in. Node 0 of
// a complete 6-node graph without the edge 5→0 sits at round 200: node 5 is
// an out-neighbour that never sends to it, the four others are peers whose
// round it can learn.
func TestResendTargeting(t *testing.T) {
	const n, me, at = 6, 0, 200
	b := graph.NewBuilder(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j && !(i == 5 && j == me) {
				b.AddEdge(i, j)
			}
		}
	}
	g := b.MustBuild()
	tr := transport.NewInproc(n, 1)
	defer tr.Close()
	cfg := clusterDefaults(tr)
	cfg.G, cfg.F, cfg.MaxRounds = g, 1, 300
	cfg.Initial = make([]float64, n)
	r := &runner{cfg: cfg.withDefaults(), updates: make(chan updateMsg, 1), errc: make(chan error, 1)}
	a := newActor(me, r)
	a.round = at
	a.history = make([]float64, at+1)
	for k := range a.history {
		a.history[k] = float64(k)
	}
	a.inbox.Reset(at)

	edge := func(to int) int { return slices.Index(a.outs, to) }
	deliver := func(from, round int) {
		if !a.onDelivery(context.Background(), transport.Delivery{
			From: from, To: me, Msg: transport.Msg{Round: round, Value: 1},
		}) {
			t.Fatalf("onDelivery(from %d, round %d) ended the run", from, round)
		}
	}
	deliver(1, 250)   // a peer ahead of us
	deliver(2, 10)    // a laggard, heard at 10 …
	deliver(2, 5)     // … whose older resend must not lower that
	deliver(3, 1<<40) // a faulty peer claiming a huge round
	deliver(4, at-2)  // a peer two rounds behind
	if a.round != at {
		t.Fatalf("actor advanced to round %d; the test needs it parked at %d", a.round, at)
	}

	// targeted is what a pass must send the in-neighbours, given empty
	// queues: the laggard gets the oldest 63 rounds it lacks plus the
	// current round, the near peer its whole gap, and — but on the deep
	// pass below — the peers known to be ahead nothing.
	targeted := map[int][]int{
		1: nil,
		2: append(rounds(10, 10+edgeQueueCap-2, 1), at),
		3: nil,
		4: rounds(at-2, at, 1),
	}
	shallow := rounds(at, at-shallowResendDepth, -1)
	check := func(pass string, fallback []int) {
		t.Helper()
		for to, want := range targeted {
			if got := drainRounds(a.qs[edge(to)]); !slices.Equal(got, want) {
				t.Errorf("%s: edge to %d got rounds %v, want %v", pass, to, got, want)
			}
		}
		if got := drainRounds(a.qs[edge(5)]); !slices.Equal(got, fallback) {
			t.Errorf("%s: fallback edge to 5 got rounds %v, want %v", pass, got, fallback)
		}
	}

	a.resendHistory()
	check("first pass", shallow)
	if d := r.outDropped.Load(); d != 0 {
		t.Errorf("targeted pass dropped %d messages, want 0", d)
	}

	// A queue with little room left gets the oldest rounds that fit, and
	// its last slot still goes to the current round.
	q := a.qs[edge(2)]
	for len(q) < cap(q)-4 {
		q <- transport.Msg{Round: -1}
	}
	a.resendHistory()
	if got, want := drainRounds(q), []int{10, 11, 12, at}; !slices.Equal(got, want) {
		t.Errorf("crowded queue: got rounds %v, want %v", got, want)
	}
	for to := range targeted {
		drainRounds(a.qs[edge(to)])
	}
	drainRounds(a.qs[edge(5)])

	// Peer knowledge is durable: a crash loses the inbox, not what the
	// actor has learned about its peers' rounds.
	a.restart()
	a.resendHistory()
	check("after restart", shallow)

	// Every deepResendEvery-th pass widens the fallback to all of history,
	// newest first, of which the queue keeps the newest edgeQueueCap rounds;
	// and it tells the peers known to be ahead the current round, in case
	// their knowledge of this actor is stale.
	for a.epoch < deepResendEvery-1 {
		a.resendHistory()
		check("shallow pass", shallow)
	}
	dropped := r.outDropped.Load()
	a.resendHistory()
	targeted[1], targeted[3] = []int{at}, []int{at}
	check("deep pass", rounds(at, at-edgeQueueCap+1, -1))
	if got, want := r.outDropped.Load()-dropped, int64(at+1-edgeQueueCap); got != want {
		t.Errorf("deep fallback pass dropped %d messages, want %d", got, want)
	}
}

// TestClusterDirectedChaosConverges runs chaos loss on a directed graph, so
// some out-neighbours never send back and their edges are repaired only by
// the history fallback: 7 nodes, complete but for the edges 0→1, 2→3 and
// 4→5, with node 6 Byzantine. The graph must satisfy the §7 condition
// (threshold 2f+1); the run must ε-converge with every update inside the
// initial fault-free hull.
func TestClusterDirectedChaosConverges(t *testing.T) {
	const n, f = 7, 1
	b := graph.NewBuilder(n)
	cut := map[[2]int]bool{{0, 1}: true, {2, 3}: true, {4, 5}: true}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j && !cut[[2]int{i, j}] {
				b.AddEdge(i, j)
			}
		}
	}
	g := b.MustBuild()
	if res, err := condition.CheckAsync(g, f); err != nil || !res.Satisfied {
		t.Fatalf("graph fails the 2f+1 condition at f = %d: %+v, %v", f, res, err)
	}
	oneWay := 0
	for i := 0; i < n; i++ {
		for _, j := range g.OutView(i) {
			if !g.HasEdge(j, i) {
				oneWay++
			}
		}
	}
	if oneWay == 0 {
		t.Fatal("every out-neighbour is an in-neighbour: the fallback path is not exercised")
	}

	initial := []float64{0, 10, 2.5, 7, 5, 1, 9}
	faulty := nodeset.FromMembers(n, 6)
	lo0, hi0 := math.Inf(1), math.Inf(-1)
	faulty.Complement().ForEach(func(i int) bool {
		lo0, hi0 = math.Min(lo0, initial[i]), math.Max(hi0, initial[i])
		return true
	})
	ch := transport.NewChaos(transport.NewInproc(n, 256), transport.ChaosConfig{
		Seed: 11, Drop: 0.25, Dup: 0.15, MaxDelay: 2 * time.Millisecond,
	})
	defer ch.Close()

	cfg := clusterDefaults(ch)
	cfg.G, cfg.Initial, cfg.MaxRounds = g, initial, 80
	cfg.F, cfg.Faulty, cfg.Adversary = f, faulty, adversary.Extremes{Amplitude: 3}
	cfg.Epsilon = 1e-6
	cfg.StallAfter = 3 * time.Second // safety net: never hang the suite
	cfg.OnUpdate = func(node, round int, value, rng float64) {
		if value < lo0-1e-9 || value > hi0+1e-9 {
			t.Errorf("node %d round %d: value %v outside initial hull [%v, %v]",
				node, round, value, lo0, hi0)
		}
	}
	res, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || res.FinalRange > cfg.Epsilon {
		t.Fatalf("no ε-convergence on the directed graph: stalled=%v finalRange=%v updates=%d resends=%d",
			res.Stalled, res.FinalRange, res.Updates, res.Resends)
	}
	if st := ch.Stats(); st.Dropped == 0 {
		t.Error("chaos dropped nothing — the run proved nothing")
	}
}

// cutTransport isolates one node — every send to or from it fails with
// ErrLinkDown — until heal is set.
type cutTransport struct {
	transport.Transport
	node   int
	healed atomic.Bool
}

func (c *cutTransport) Send(ctx context.Context, from, to int, m transport.Msg) error {
	if !c.healed.Load() && (from == c.node || to == c.node) {
		return transport.ErrLinkDown
	}
	return c.Transport.Send(ctx, from, to, m)
}

// TestClusterDeepLaggardRepair cuts node 5 of a complete 6-node graph off
// from the start (at f = 1 the other five still make quorums) and heals the
// cut only once every other node has run more than 2×edgeQueueCap rounds
// ahead. The laggard is then more rounds behind than any one resend pass
// can carry, so it catches up only if passes walk it forward oldest first;
// it must reach MaxRounds with every update inside the initial hull.
func TestClusterDeepLaggardRepair(t *testing.T) {
	const n, laggard, maxRounds = 6, 5, 300
	const healAt = 2*edgeQueueCap + 8
	g, err := topology.Complete(n)
	if err != nil {
		t.Fatal(err)
	}
	initial := []float64{3, 8, 1, 6, 4.5, 9}
	tr := &cutTransport{Transport: transport.NewInproc(n, 256), node: laggard}
	defer tr.Close()

	cfg := clusterDefaults(tr)
	cfg.G, cfg.F, cfg.Initial, cfg.MaxRounds = g, 1, initial, maxRounds
	cfg.StallAfter = 5 * time.Second // safety net: never hang the suite
	round := make([]int, n)
	lagAtHeal := -1
	cfg.OnUpdate = func(node, r int, value, rng float64) {
		if value < 1-1e-9 || value > 9+1e-9 {
			t.Errorf("node %d round %d: value %v outside initial hull [1, 9]", node, r, value)
		}
		round[node] = r
		if lagAtHeal >= 0 {
			return
		}
		ahead := slices.Min(round[:laggard])
		if ahead >= round[laggard]+healAt {
			lagAtHeal = ahead - round[laggard]
			tr.healed.Store(true)
		}
	}
	res, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if lagAtHeal < 2*edgeQueueCap {
		t.Fatalf("cut healed at a lag of %d rounds, want ≥ %d", lagAtHeal, 2*edgeQueueCap)
	}
	if res.Stalled || res.Rounds[laggard] != maxRounds {
		t.Fatalf("laggard stopped at round %d of %d (stalled=%v, resends=%d)",
			res.Rounds[laggard], maxRounds, res.Stalled, res.Resends)
	}
}
