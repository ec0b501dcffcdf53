package node

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"time"

	"iabc/internal/adversary"
	"iabc/internal/core"
	"iabc/internal/hashrand"
	"iabc/internal/quorum"
	"iabc/internal/transport"
)

// edgeQueueCap bounds each out-edge's send queue. Enqueues onto a full queue
// are dropped (counted in Result.OutDropped) — a later resend pass repairs
// the loss, so a slow or dead link cannot grow memory or block the actor.
// Resends to in-neighbours are sized to the queue's free room and never
// drop; only progress broadcasts and the history fallback can.
const edgeQueueCap = 64

// seqOf derives a transmission identity for a Msg.Seq from the round, the
// resend epoch (0 for a round's first broadcast, a fresh per-actor epoch for
// each history resend pass and restart re-announcement), and the out-edge
// index. Distinct epochs give retransmissions distinct Seqs, so a chaos
// layer that keys its drop decision on Seq re-draws per transmission — a
// message dropped once is not doomed to be dropped on every resend.
//
// The identity is a keyed 64-bit hash of the full triple rather than a
// bit-packed word: packing masked the epoch to 16 bits, so a long stall
// (> 65536 resend passes) aliased epoch e with e+65536 and the chaos layer
// re-drew the *same* fault decisions — exactly the doomed-forever pattern
// epochs exist to break. Seq only ever feeds keyed hashing and dedup is
// per (sender, round) at the receiver, so collision resistance, not
// invertibility, is the requirement.
func seqOf(round, epoch, edge int) uint64 {
	return hashrand.Key(0, uint64(round), uint64(epoch), uint64(edge))
}

// sender owns a node's outbound side: one bounded queue and one pump
// goroutine per out-edge, so a dead or partitioned destination delays only
// its own edge (no head-of-line blocking across links). Each pump retries
// failed sends with capped exponential backoff inside a per-message
// SendTimeout budget, then abandons — degrade, never deadlock.
type sender struct {
	id   int
	r    *runner
	outs []int
	qs   []chan transport.Msg
}

func newSender(id int, r *runner) *sender {
	outs := r.cfg.G.OutView(id)
	s := &sender{id: id, r: r, outs: outs, qs: make([]chan transport.Msg, len(outs))}
	for e := range s.qs {
		s.qs[e] = make(chan transport.Msg, edgeQueueCap)
	}
	return s
}

// start launches the per-edge pumps for one actor incarnation.
func (s *sender) start(ctx context.Context, done func()) {
	for e := range s.qs {
		e := e
		go func() {
			defer done()
			s.pumpEdge(ctx, e)
		}()
	}
}

// enqueue hands a message to edge e's pump without blocking.
func (s *sender) enqueue(e int, m transport.Msg) bool {
	select {
	case s.qs[e] <- m:
		return true
	default:
		s.r.outDropped.Add(1)
		return false
	}
}

// pumpEdge drains edge e's queue into the transport until ctx (the
// incarnation) ends. The pump owns one sendBudget for the whole
// incarnation, so a successful send costs one transport Send and touches
// neither the allocator nor the run context's child registry.
func (s *sender) pumpEdge(ctx context.Context, e int) {
	to := s.outs[e]
	b := sendBudget{parent: ctx}
	defer b.release()
	for {
		select {
		case <-ctx.Done():
			return
		case m := <-s.qs[e]:
			s.sendOne(ctx, &b, to, m)
		}
	}
}

// sendBudget is a pump's reusable per-message SendTimeout budget: one
// cancelable child of the incarnation context plus one timer that cancels
// it. arm re-arms the timer for each message; the context is replaced only
// after the timer has fired, since an expired budget stays canceled. A
// fresh context.WithDeadline per message would instead allocate a context
// and a timer and register and unregister a child on the parent, whose
// mutex every pump of the run would contend on.
type sendBudget struct {
	parent context.Context
	ctx    context.Context
	cancel context.CancelFunc
	timer  *time.Timer // nil until the first arm and after each expiry
}

// arm starts a budget of d and returns the context that carries it.
func (b *sendBudget) arm(d time.Duration) context.Context {
	if b.timer == nil {
		b.ctx, b.cancel = context.WithCancel(b.parent)
		b.timer = time.AfterFunc(d, b.cancel)
	} else {
		b.timer.Reset(d)
	}
	return b.ctx
}

// disarm ends the current message's budget. A timer that already fired has
// canceled (or is canceling) the context, so the next arm builds a new one.
func (b *sendBudget) disarm() {
	if !b.timer.Stop() {
		b.cancel()
		b.timer = nil
	}
}

// release frees the budget when its pump exits.
func (b *sendBudget) release() {
	if b.timer != nil {
		b.timer.Stop()
		b.cancel()
	}
}

// sendOne drives one message through the transport under the pump's
// budget, armed once for the message: retry on failure with exponential
// backoff (doubling from RetryBackoff, capped at maxBackoffFactor times
// it) until SendTimeout is spent, then abandon. ErrLinkDown is the
// designed-for case — the link may heal mid-budget, which is how sends
// survive short partitions.
func (s *sender) sendOne(ctx context.Context, b *sendBudget, to int, m transport.Msg) {
	cfg := &s.r.cfg
	sctx := b.arm(cfg.SendTimeout)
	defer b.disarm()
	deadline := time.Now().Add(cfg.SendTimeout)
	backoff := cfg.RetryBackoff
	maxBackoff := cfg.RetryBackoff * maxBackoffFactor
	for {
		err := cfg.Transport.Send(sctx, s.id, to, m)
		if err == nil {
			return
		}
		if ctx.Err() != nil || errors.Is(err, transport.ErrClosed) {
			return
		}
		if sctx.Err() != nil || !time.Now().Add(backoff).Before(deadline) {
			s.r.abandoned.Add(1)
			return
		}
		t := time.NewTimer(backoff)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return
		}
		if backoff *= 2; backoff > maxBackoff {
			backoff = maxBackoff
		}
	}
}

// actor is one fault-free node: it owns the durable protocol state (round,
// value, history of broadcast values) and a volatile quorum inbox. The
// durable part survives crash windows — the supervisor re-runs the same
// actor, so a restart resumes from the last completed round, exactly the
// "resume from durable state and resend the current round" contract.
type actor struct {
	*sender
	id     int
	r      *runner
	ins    []int
	quorum int
	recv   <-chan transport.Delivery

	// Durable state.
	round   int
	value   float64
	history []float64
	epoch   int
	started bool
	// heard[e] is the highest round received from out-neighbour outs[e]:
	// a round-r message proves its sender finished every round below r,
	// and a fault-free node's round never moves back, so heard[e] is a
	// lower bound on that peer's round (0 before anything arrives). It is
	// -1 for an out-neighbour that is not an in-neighbour, whose round
	// this actor can never learn.
	heard []int
	// outEdge[pos] is the out-edge index of in-neighbour ins[pos], or -1.
	outEdge []int

	// Volatile state (reset across restarts).
	inbox      *quorum.Ring
	progressed bool

	buffered core.BufferedRule
	scratch  core.Scratch
	recvBuf  []core.ValueFrom
}

func newActor(id int, r *runner) *actor {
	cfg := &r.cfg
	deg := cfg.G.InDegree(id)
	q := quorum.Count(deg, cfg.F)
	if cfg.QuorumOverride != nil {
		q = cfg.QuorumOverride(id)
	}
	buffered, _ := cfg.Rule.(core.BufferedRule)
	snd := newSender(id, r)
	ins := cfg.G.InView(id)
	heard := make([]int, len(snd.outs))
	outEdge := make([]int, len(ins))
	for pos := range outEdge {
		outEdge[pos] = -1
	}
	for e, to := range snd.outs {
		pos := sort.SearchInts(ins, to)
		if pos < len(ins) && ins[pos] == to {
			outEdge[pos] = e
		} else {
			heard[e] = -1
		}
	}
	return &actor{
		sender:   snd,
		id:       id,
		r:        r,
		ins:      ins,
		quorum:   q,
		recv:     cfg.Transport.Recv(id),
		value:    cfg.Initial[id],
		history:  append(make([]float64, 0, cfg.MaxRounds+1), cfg.Initial[id]),
		heard:    heard,
		outEdge:  outEdge,
		inbox:    quorum.NewRing(deg),
		recvBuf:  make([]core.ValueFrom, 0, deg),
		buffered: buffered,
	}
}

// restart drops the volatile state a crash loses: the inbox is rebased,
// empty, at the durable round, and peer resends re-fill it. Peer knowledge
// (heard) is durable — every bound in it stays true across the crash.
func (a *actor) restart() {
	a.inbox.Reset(a.round)
	a.progressed = false
}

// run executes one incarnation of the actor until ctx is done. After
// reaching MaxRounds the actor lingers in the same loop: it keeps draining
// deliveries and serving stall-triggered resends, because laggards may
// still need its history — the runner ends the run when every fault-free
// node is done.
func (a *actor) run(ctx context.Context) {
	if !a.started {
		a.started = true
		a.broadcast(a.round, 0)
	} else {
		// Restart: re-announce the current round under a fresh epoch so the
		// re-transmissions are distinct Seqs.
		a.broadcast(a.round, a.nextEpoch())
	}
	delay := a.r.cfg.ResendEvery
	timer := time.NewTimer(delay)
	defer timer.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case d := <-a.recv:
			a.r.deliveries.Add(1)
			if !a.onDelivery(ctx, d) {
				return
			}
			// Burst-drain the backlog before yielding to the timer: under a
			// resend flood most deliveries are stale dedups, and draining
			// them in a tight loop keeps the queue from backing up into the
			// transport.
			for drained := false; !drained; {
				select {
				case d := <-a.recv:
					a.r.deliveries.Add(1)
					if !a.onDelivery(ctx, d) {
						return
					}
				case <-ctx.Done():
					return
				default:
					drained = true
				}
			}
		case <-timer.C:
			if a.progressed {
				a.progressed = false
				delay = a.r.cfg.ResendEvery
			} else {
				// Back off while the stall persists: a fixed-rate resend
				// storm from every stalled node congests the very network
				// the resends are trying to repair (and on a loaded machine
				// the flood itself can hold the stall open). Progress resets
				// the backoff.
				a.resendHistory()
				if delay *= 2; delay > maxResendBackoffFactor*a.r.cfg.ResendEvery {
					delay = maxResendBackoffFactor * a.r.cfg.ResendEvery
				}
			}
			timer.Reset(delay)
		}
	}
}

// maxResendBackoffFactor caps the stall-resend backoff at this multiple of
// ResendEvery.
const maxResendBackoffFactor = 32

func (a *actor) nextEpoch() int {
	a.epoch++
	return a.epoch
}

// broadcast enqueues round k's value on every out-edge.
func (a *actor) broadcast(k, epoch int) {
	for e := range a.outs {
		a.send(e, k, epoch)
	}
}

// send enqueues round k's value on out-edge e; epoch > 0 marks a resend.
func (a *actor) send(e, k, epoch int) {
	m := transport.Msg{Round: k, Value: a.history[k], Seq: seqOf(k, epoch, e)}
	if a.enqueue(e, m) && epoch > 0 {
		a.r.resends.Add(1)
	}
}

// deepResendEvery makes every k-th resend pass cover the full history on
// the fallback edges (and tell peers known to be ahead the current round);
// the passes between cover only the recent window, which keeps a long
// stall from flooding the network with thousands of old rounds per tick
// while still repairing arbitrarily deep laggards within k ticks.
const (
	deepResendEvery    = 8
	shallowResendDepth = 4
)

// resendHistory retransmits completed rounds to the peers that may still
// need them. It fires only when a resend interval passed with no round
// progress. An out-neighbour that is also an in-neighbour gets the rounds
// from its last-heard round heard[e] upward, oldest first (see resendTo): a
// peer known to be at round p needs nothing below p. A peer known to be
// ahead of this actor needs nothing it holds and gets nothing, except that
// every deepResendEvery-th pass sends it the current round: its knowledge
// of this actor may be stale (our messages lost while its own got through),
// and a peer that aims its resends at a stale round could otherwise leave
// this actor stalled for good. An out-neighbour that never sends to us (a
// directed graph) cannot be known, so it gets the history fallback: the
// current round and the shallowResendDepth rounds below it, newest first,
// with every deepResendEvery-th pass covering all of history. Safe by
// idempotence: round k's message is a pure function of the round-k state,
// and receivers dedup per (sender, round), so resends repair losses
// without ever altering a fault-free trajectory.
func (a *actor) resendHistory() {
	ep := a.nextEpoch()
	deep := ep%deepResendEvery == 0
	lo := 0
	if !deep && a.round > shallowResendDepth {
		lo = a.round - shallowResendDepth
	}
	for e := range a.outs {
		switch p := a.heard[e]; {
		case p > a.round:
			if deep {
				a.send(e, a.round, ep)
			}
		case p >= 0:
			a.resendTo(e, p, ep)
		default:
			for k := a.round; k >= lo; k-- {
				a.send(e, k, ep)
			}
		}
	}
}

// resendTo sends out-edge e, whose peer is known to be at round p or later
// (p ≤ a.round), the rounds p…a.round oldest first — the order a laggard
// consumes them — within the free room of the edge's queue, so a resend
// never overflows it.
// When the window does not fit, its last slot goes to the current round,
// which serves a peer that has moved on since it was last heard. A full
// queue gets nothing: its pump is still busy with earlier sends.
func (a *actor) resendTo(e, p, epoch int) {
	room := cap(a.qs[e]) - len(a.qs[e])
	if room <= 0 {
		return
	}
	hi := a.round
	if hi-p+1 > room {
		hi = p + room - 2
	}
	for k := p; k <= hi; k++ {
		a.send(e, k, epoch)
	}
	if hi < a.round {
		a.send(e, a.round, epoch)
	}
}

// onDelivery ingests one message and advances as many rounds as the inbox
// then supports — the same quorum discipline as the async engine, sharing
// its ring. Reports false only when the run must end (rule error or ctx
// done while reporting).
func (a *actor) onDelivery(ctx context.Context, d transport.Delivery) bool {
	pos := sort.SearchInts(a.ins, d.From)
	if pos >= len(a.ins) || a.ins[pos] != d.From {
		return true // not an in-neighbor; ignore forged or misrouted traffic
	}
	// Even a stale message raises what we know of its sender's round.
	if e := a.outEdge[pos]; e >= 0 && d.Round > a.heard[e] {
		a.heard[e] = d.Round
	}
	if d.Round < a.round {
		return true // stale: a resend the actor no longer needs
	}
	cfg := &a.r.cfg
	if d.Round > cfg.MaxRounds {
		// No fault-free node ever sends past MaxRounds; buffering such a
		// claim would grow the inbox ring to the claimed round.
		return true
	}
	if !a.inbox.Put(d.Round, pos, d.Value) {
		return true // duplicate (resend or chaos dup): first arrival won
	}
	for a.round < cfg.MaxRounds && a.inbox.Filled(a.round) >= a.quorum {
		received := a.inbox.Gather(a.round, a.ins, a.recvBuf[:0])
		var v float64
		var err error
		if a.buffered != nil {
			v, err = a.buffered.UpdateInto(&a.scratch, a.value, received, cfg.F)
		} else {
			v, err = cfg.Rule.Update(a.value, received, cfg.F)
		}
		if err != nil {
			a.r.fail(fmt.Errorf("node: node %d round %d: %w", a.id, a.round, err))
			return false
		}
		a.inbox.Pop()
		a.value = v
		a.round++
		a.history = append(a.history, v)
		a.progressed = true
		select {
		case a.r.updates <- updateMsg{node: a.id, round: a.round, value: v}:
		case <-ctx.Done():
			return false
		}
		a.broadcast(a.round, 0)
	}
	return true
}

// faultySink scatters an EdgeWriter emission onto a faulty sender's
// out-edges, mirroring the async engine's emitSink.
type faultySink struct {
	snd   *sender
	round int
}

// Send implements adversary.EdgeSink.
func (s *faultySink) Send(k int, value float64) {
	s.snd.enqueue(k, transport.Msg{Round: s.round, Value: value, Seq: seqOf(s.round, 0, k)})
}

// runFaulty drives one faulty node: every FaultyTick it asks the adversary
// for its next round batch against a fresh omniscient snapshot and enqueues
// the chosen values (each round emitted once — a faulty node owes nobody
// retransmissions; its silence is the fault the quorum tolerates). It also
// drains its delivery stream so honest senders never block on a faulty
// receiver's full queue.
func (r *runner) runFaulty(ctx context.Context, s int) {
	snd := newSender(s, r)
	var pumps int
	pumpDone := make(chan struct{}, len(snd.qs))
	snd.start(ctx, func() { pumpDone <- struct{}{} })
	pumps = len(snd.qs)
	defer func() {
		for i := 0; i < pumps; i++ {
			<-pumpDone
		}
	}()

	recv := r.cfg.Transport.Recv(s)
	tick := time.NewTicker(r.cfg.FaultyTick)
	defer tick.Stop()
	round := 0
	for {
		select {
		case <-ctx.Done():
			return
		case <-recv:
			// Discard: faulty behavior is the adversary's, not the protocol's.
		case <-tick.C:
			if round > r.cfg.MaxRounds {
				continue // emissions done; keep draining until the run ends
			}
			r.emitFaulty(snd, s, round)
			round++
		}
	}
}

// emitFaulty enqueues one faulty round batch, via the EdgeWriter fast path
// when the strategy provides it.
func (r *runner) emitFaulty(snd *sender, s, round int) {
	view := r.view(round)
	if r.edgeWriter != nil {
		r.edgeWriter.WriteMessages(view, s, &faultySink{snd: snd, round: round})
		return
	}
	msgs := r.cfg.Adversary.Messages(view, s)
	for e, to := range r.cfg.G.OutView(s) {
		if v, ok := msgs[to]; ok {
			snd.enqueue(e, transport.Msg{Round: round, Value: v, Seq: seqOf(round, 0, e)})
		}
		// Omitted receivers genuinely get nothing: asynchronous silence.
	}
}

var _ adversary.EdgeSink = (*faultySink)(nil)
