package node

import (
	"context"
	"sync"
	"testing"
	"time"

	"iabc/internal/topology"
	"iabc/internal/transport"
)

// TestPumpSendZeroAllocs pins the send path's steady state: once a pump's
// budget exists, a message that the transport accepts on the first try
// costs no allocation — no per-message context, timer or child
// registration on the incarnation context.
func TestPumpSendZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not exact under the race detector")
	}
	g, err := topology.Complete(2)
	if err != nil {
		t.Fatal(err)
	}
	tr := transport.NewInproc(2, 1)
	defer tr.Close()
	cfg := clusterDefaults(tr)
	cfg.G = g
	s := newSender(0, &runner{cfg: cfg.withDefaults()})

	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	wg.Add(len(s.qs))
	s.start(ctx, wg.Done)
	defer func() {
		cancel()
		wg.Wait()
	}()

	recv := tr.Recv(1)
	m := transport.Msg{Round: 3, Value: 1.5}
	sendOne := func() {
		if !s.enqueue(0, m) {
			t.Fatal("edge queue full")
		}
		if d := <-recv; d.Msg != m {
			t.Fatalf("delivered %+v, want %+v", d.Msg, m)
		}
	}
	for i := 0; i < 100; i++ {
		sendOne() // warm up: the pump's budget is built on its first message
	}
	if allocs := testing.AllocsPerRun(1000, sendOne); allocs != 0 {
		t.Fatalf("%v allocations per sent message, want 0", allocs)
	}
}

// TestPumpBudgetRenewsAfterExpiry drives the budget's expiry path: a send
// blocked on a full receiver queue is abandoned once SendTimeout is spent,
// and every later message runs under a fresh budget — a canceled one would
// make each of them race its own cancellation.
func TestPumpBudgetRenewsAfterExpiry(t *testing.T) {
	g, err := topology.Complete(2)
	if err != nil {
		t.Fatal(err)
	}
	tr := transport.NewInproc(2, 1)
	defer tr.Close()
	cfg := clusterDefaults(tr)
	cfg.G, cfg.SendTimeout = g, 5*time.Millisecond
	r := &runner{cfg: cfg.withDefaults()}
	s := newSender(0, r)

	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	wg.Add(len(s.qs))
	s.start(ctx, wg.Done)
	defer func() {
		cancel()
		wg.Wait()
	}()

	recv := tr.Recv(1)
	s.enqueue(0, transport.Msg{Round: 0}) // fills the receiver's queue
	s.enqueue(0, transport.Msg{Round: 1}) // blocks until its budget expires
	deadline := time.Now().Add(5 * time.Second)
	for r.abandoned.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("the blocked send was never abandoned")
		}
		time.Sleep(time.Millisecond)
	}
	if d := <-recv; d.Round != 0 {
		t.Fatalf("first delivery is round %d, want 0", d.Round)
	}
	for k := 2; k < 40; k++ {
		s.enqueue(0, transport.Msg{Round: k})
		select {
		case d := <-recv:
			if d.Round != k {
				t.Fatalf("delivered round %d, want %d", d.Round, k)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("round %d never delivered", k)
		}
	}
	if got := r.abandoned.Load(); got != 1 {
		t.Fatalf("abandoned = %d, want 1", got)
	}
}
