package condition

// This file holds the checker's one fault-set scan executor and exports it
// as the distribution seam. A scan is embarrassingly parallel across fault
// sets, and each fault set's work — verdict contribution and counter delta
// alike — is a pure function of (graph, ground, threshold): that is the
// same determinism argument the checkpoint/resume layer rests on (see
// state.go). Two pieces carry every exact check:
//
//   - ShardScanner executes an arbitrary index range of the canonical
//     fault-set enumeration, stopping at the range's first violation. It is
//     the kernel of CheckScan's goroutines and of a distributed worker.
//   - ScanFrontier is the durable contiguous frontier those ranges are
//     journaled into — the reorder-buffered checkpointer CheckScan feeds one
//     fault set at a time, which the coordinator in internal/distrib feeds
//     whole lease chunks.
//
// The Result follows one rule on every path: the frontier aggregate over
// the satisfied prefix [0, v), plus the lowest violating fault set v's
// early-exit counters (RangeResult.Partial), with FaultSetsExamined = v+1.
// Because both pieces are pure in the scan identity, a run at any worker
// count — or sharded across machines, with leases expiring and re-executed
// — finishes with verdict, witness, and counters identical to a
// one-goroutine scan.

import (
	"context"
	"fmt"
	"math"
	"math/bits"

	"iabc/internal/graph"
	"iabc/internal/nodeset"
	"iabc/internal/statestore"
)

// WorkCounters is the exported form of the per-scan work account: candidate
// L sets examined (tested + pruned), the pruned split, and memo hits. It is
// the unit that flows from workers to the coordinator and into checkpoints.
type WorkCounters struct {
	Candidates int64
	Pruned     int64
	MemoHits   int64
}

// Add accumulates other into c.
func (c *WorkCounters) Add(other WorkCounters) {
	c.Candidates += other.Candidates
	c.Pruned += other.Pruned
	c.MemoHits += other.MemoHits
}

func (c WorkCounters) internal() checkCounters {
	return checkCounters{candidates: c.Candidates, pruned: c.Pruned, memoHits: c.MemoHits}
}

func exportCounters(c checkCounters) WorkCounters {
	return WorkCounters{Candidates: c.candidates, Pruned: c.pruned, MemoHits: c.memoHits}
}

// NumFaultSets returns the scan extent Σ_{k≤f} C(n,k) — the number of fault
// sets the canonical enumeration visits — or 0 when n exceeds the int64
// binomial table (n > 62), in which case the scan cannot be partitioned by
// index and must run locally.
func NumFaultSets(n, f int) int64 { return totalFaultSets(n, f) }

// ScanFrontier is the coordinator-facing handle on a scan's durable
// contiguous frontier: completed spans are journaled out of order, the
// frontier advances only over gap-free prefixes, and the aggregate is
// checkpointed through a statestore.Backend on the usual cadence. With a
// nil store the frontier is memory-only — same aggregation, no durability.
type ScanFrontier struct {
	st    *scanState
	total int64
}

// LoadScanFrontier consults the store (which may be nil) for the scan
// identity (g, f, threshold) and returns, in order of preference: a cached
// verdict (cached != nil — the scan need not run), or a frontier seeded
// from the newest checkpoint (possibly empty). The validation is
// CheckScan's: f ≥ 0, threshold ≥ 1, n−f ≤ 62, n ≤ 64.
func LoadScanFrontier(ctx context.Context, store statestore.Backend, g *graph.Graph, f, threshold, checkpointEvery int) (fr *ScanFrontier, cached *Result, err error) {
	if _, err := scanExtent(g, f, threshold); err != nil {
		return nil, nil, err
	}
	st, cached, err := loadScanState(ctx, store, g, f, threshold, checkpointEvery)
	if err != nil || cached != nil {
		return nil, cached, err
	}
	return &ScanFrontier{st: st, total: totalFaultSets(g.N(), f)}, nil, nil
}

// Total returns the scan extent (see NumFaultSets).
func (fr *ScanFrontier) Total() int64 { return fr.total }

// ResumePoint returns the first fault-set index still to scan and the
// counter aggregate the persisted prefix already accounts for.
func (fr *ScanFrontier) ResumePoint() (int64, WorkCounters) {
	idx, cc := fr.st.resumePoint()
	return idx, exportCounters(cc)
}

// CompleteSpan journals the fault sets [lo, hi) as satisfied with their
// aggregate counter delta. Spans must be disjoint; out-of-order spans wait
// in the reorder buffer, so the durable frontier never jumps a gap.
func (fr *ScanFrontier) CompleteSpan(ctx context.Context, lo, hi int64, delta WorkCounters) error {
	return fr.st.completeSpan(ctx, lo, hi, delta.internal())
}

// Position returns the current contiguous frontier and the counter
// aggregate over [0, frontier) — resumed prefix included.
func (fr *ScanFrontier) Position() (int64, WorkCounters) { return fr.st.position() }

// Flush forces a checkpoint write of the current frontier — the last act of
// an interrupted coordinator, so a resume loses at most the reorder tail.
func (fr *ScanFrontier) Flush(ctx context.Context) error { return fr.st.flush(ctx) }

// Finish settles the scan: the verdict is cached for later calls with the
// same identity and the in-flight checkpoint is removed — byte-identical to
// what a single-process CheckScan would persist for the same Result.
func (fr *ScanFrontier) Finish(ctx context.Context, res Result) error {
	return fr.st.finish(ctx, res)
}

// RangeResult reports a ShardScanner.ScanRange outcome.
type RangeResult struct {
	// Completed counts the satisfied fault sets scanned: indexes
	// [lo, lo+Completed) passed. Equal to hi−lo iff no violation.
	Completed int64
	// Violation is the absolute index of the first violating fault set in
	// the range, or -1. The scan stops there.
	Violation int64
	// Witness is the violating partition when Violation >= 0.
	Witness *Witness
	// Satisfied aggregates the counter deltas of the Completed prefix.
	Satisfied WorkCounters
	// Partial is the violating fault set's own early-exit counter delta —
	// the work findDisjointInsulatedPair did before stopping at the first
	// violating candidate. Zero when the range is clean. A Result adds
	// Partial once, for the lowest violation (see the file comment).
	Partial WorkCounters
}

// ShardScanner executes index ranges of the canonical fault-set enumeration
// (size-ascending, then combination-lexicographic) for one scan identity
// (g, f, threshold). Fault sets are addressed by rank, never materialized:
// the scanner keeps one cursor, unranks a range start in O(n·f) — the size
// class from the binomial prefix sums, then the lexicographic combination —
// and steps to the next combination in place, so it costs O(n) memory
// whatever the scan's extent. The insulation kernel is reused across fault
// sets, which is sound because all cross-fault-set state resets per ground
// (see state.go), and a satisfied fault set allocates nothing. Fault sets
// that a rotation or reflection automorphism of g maps to a lower rank are
// skipped as satisfied (see symmetry.go).
//
// A ShardScanner is not safe for concurrent use; give each goroutine its
// own.
type ShardScanner struct {
	g         *graph.Graph
	threshold int
	total     int64
	kernel    *insulationKernel
	// The cursor: fault set number pos, its members ascending, and V minus
	// them as a kernel mask.
	pos    int64
	comb   []int
	ground uint64
	// auts are g's detected automorphisms; img is canonical's buffer for
	// the cursor's image under one of them.
	auts []automorphism
	img  []int
}

// scanExtent validates a scan identity against the exact checker's limits
// and returns its extent (see faultSetCount). Beyond n−f ≤ 62, which keeps
// every ground's candidate count in an int64, the kernel needs n ≤ 64 so
// that every node set fits one word.
func scanExtent(g *graph.Graph, f, threshold int) (int64, error) {
	n := g.N()
	if f < 0 {
		return 0, fmt.Errorf("condition: f must be >= 0, got %d", f)
	}
	if threshold < 1 {
		return 0, fmt.Errorf("condition: threshold must be >= 1, got %d", threshold)
	}
	if n-f > 62 {
		return 0, fmt.Errorf("condition: exact check infeasible for n-f = %d > 62 nodes", n-f)
	}
	if n > maxKernelNodes {
		return 0, fmt.Errorf("condition: exact check limited to n <= %d nodes (one machine word per node set), got n = %d", maxKernelNodes, n)
	}
	total := faultSetCount(n, f)
	if total < 0 {
		return 0, fmt.Errorf("condition: exact check infeasible: more than 2^63 fault sets for n = %d, f = %d", n, f)
	}
	return total, nil
}

// faultSetCount returns Σ_{k≤f} C(n,k) — computed past the n ≤ 62 binomial
// table, unlike NumFaultSets — or -1 when it exceeds an int64.
func faultSetCount(n, f int) int64 {
	var total int64
	for k := 0; k <= f && k <= n; k++ {
		c := choose(n, k)
		if c > math.MaxInt64-total {
			return -1
		}
		total += c
	}
	return total
}

// choose returns C(m, k), saturating at math.MaxInt64: the binomial table
// where it reaches, the multiplicative formula in 128-bit arithmetic beyond.
func choose(m, k int) int64 {
	if m <= 62 {
		return binom(m, k)
	}
	if k < 0 || k > m {
		return 0
	}
	c := uint64(1)
	for i := 0; i < min(k, m-k); i++ {
		// C(m, i+1) = C(m, i)·(m−i)/(i+1) exactly.
		hi, lo := bits.Mul64(c, uint64(m-i))
		if hi >= uint64(i+1) {
			return math.MaxInt64
		}
		if c, _ = bits.Div64(hi, lo, uint64(i+1)); c > math.MaxInt64 {
			return math.MaxInt64
		}
	}
	return int64(c)
}

// NewShardScanner returns a scanner for (g, f, threshold), its cursor on
// fault set 0 (F = ∅). The feasibility validation is CheckScan's.
func NewShardScanner(g *graph.Graph, f, threshold int) (*ShardScanner, error) {
	total, err := scanExtent(g, f, threshold)
	if err != nil {
		return nil, err
	}
	return newShardScanner(g, f, threshold, total), nil
}

// newShardScanner builds a scanner for an identity scanExtent accepted.
func newShardScanner(g *graph.Graph, f, threshold int, total int64) *ShardScanner {
	k := min(f, g.N())
	return &ShardScanner{
		g: g, threshold: threshold, total: total,
		kernel: newInsulationKernel(g),
		comb:   make([]int, 0, k),
		ground: universeMask(g.N()),
		auts:   symmetries(g),
		img:    make([]int, k),
	}
}

// NumFaultSets returns the enumeration's extent.
func (s *ShardScanner) NumFaultSets() int64 { return s.total }

// ScanRange scans fault sets [lo, hi), stopping at the first violation.
// Cancellation is checked between fault sets; on cancellation the partial
// result is discarded and only the error returns (the caller's lease is
// simply re-run elsewhere).
func (s *ShardScanner) ScanRange(ctx context.Context, lo, hi int64) (RangeResult, error) {
	return s.scanRange(ctx, lo, hi, nil)
}

// scanRange is ScanRange with a per-fault-set hook: satisfied, when
// non-nil, is called after each satisfied fault set with its index and
// counter delta, and an error from it ends the scan. CheckScan journals
// through it, so checkpoints and progress stay per fault set; the
// distributed worker, which reports whole slices, passes nil.
func (s *ShardScanner) scanRange(ctx context.Context, lo, hi int64, satisfied func(i int64, delta checkCounters) error) (RangeResult, error) {
	res := RangeResult{Violation: -1}
	if lo < 0 || hi < lo || hi > s.total {
		return res, fmt.Errorf("condition: scan range [%d, %d) outside [0, %d)", lo, hi, s.total)
	}
	for i := lo; i < hi; i++ {
		if err := ctx.Err(); err != nil {
			return res, fmt.Errorf("condition: shard scan canceled at fault set %d: %w", i, context.Cause(ctx))
		}
		s.moveTo(i)
		var cc checkCounters
		// A non-canonical fault set is satisfied by symmetry, with no work.
		if s.canonical() {
			if l, r := findDisjointInsulatedPair(s.kernel, s.ground, s.threshold, &cc); l != 0 {
				n := s.g.N()
				res.Violation = i
				res.Witness = &Witness{
					F: nodeset.FromMembers(n, s.comb...),
					L: maskSet(n, l),
					C: maskSet(n, s.ground&^l&^r),
					R: maskSet(n, r),
				}
				res.Partial = exportCounters(cc)
				return res, nil
			}
		}
		res.Completed++
		res.Satisfied.Add(exportCounters(cc))
		if satisfied != nil {
			if err := satisfied(i, cc); err != nil {
				return res, err
			}
		}
	}
	return res, nil
}

// moveTo positions the cursor on fault set idx: one in-place step from the
// previous fault set — always, within a range — or an unranking.
func (s *ShardScanner) moveTo(idx int64) {
	switch idx {
	case s.pos:
	case s.pos + 1:
		s.next()
	default:
		s.seek(idx)
	}
	s.pos = idx
}

// seek unranks idx: the size class k from the binomial prefix sums, then
// the rank within it as a lexicographic k-combination of 0..n−1.
func (s *ShardScanner) seek(idx int64) {
	n := s.g.N()
	s.mark(0, true)
	k := 0
	for c := choose(n, 0); idx >= c; c = choose(n, k) {
		idx -= c
		k++
	}
	s.comb = s.comb[:k]
	v := 0
	for j := range s.comb {
		// C(n−1−v, k−1−j) combinations put v in slot j.
		for c := choose(n-1-v, k-1-j); idx >= c; c = choose(n-1-v, k-1-j) {
			idx -= c
			v++
		}
		s.comb[j] = v
		v++
	}
	s.mark(0, false)
}

// next steps the cursor to the following fault set: the next lexicographic
// combination of the same size, or {0, …, k} once size k is exhausted.
func (s *ShardScanner) next() {
	n, k := s.g.N(), len(s.comb)
	i := k - 1
	for i >= 0 && s.comb[i] == n-k+i {
		i--
	}
	s.mark(max(i, 0), true)
	if i < 0 {
		i, s.comb = 0, s.comb[:k+1]
		s.comb[0] = -1
	}
	s.comb[i]++
	for j := i + 1; j < len(s.comb); j++ {
		s.comb[j] = s.comb[j-1] + 1
	}
	s.mark(i, false)
}

// mark adds the cursor's members in slots i.. to the ground set (inGround)
// or takes them out of it.
func (s *ShardScanner) mark(i int, inGround bool) {
	for _, v := range s.comb[i:] {
		if inGround {
			s.ground |= 1 << uint(v)
		} else {
			s.ground &^= 1 << uint(v)
		}
	}
}
