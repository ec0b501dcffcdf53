package condition

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"iabc/internal/graph"
	"iabc/internal/statestore"
)

// Progress is a streaming snapshot of an exact check's fault-set scan.
type Progress struct {
	// FaultSetsDone counts the fault sets fully processed so far.
	FaultSetsDone int64
	// FaultSetsTotal is Σ_{k≤f} C(n,k) — the scan's full extent — or 0 when
	// it exceeds the int64 binomial table (n > 62), in which case only
	// FaultSetsDone is meaningful.
	FaultSetsTotal int64
}

// ProgressFunc receives Progress snapshots. CheckScan sends one per
// satisfied fault set, and with workers > 1 invokes it concurrently from
// its goroutines, so it must be safe for concurrent use; it runs on the
// scan's hot path, so it must be fast. The distributed coordinator sends
// one per worker report instead, with FaultSetsDone its contiguous
// frontier.
type ProgressFunc func(Progress)

// totalFaultSets returns Σ_{k=0..f} C(n,k), or 0 when n is outside the
// binomial table.
func totalFaultSets(n, f int) int64 {
	if n > 62 {
		return 0
	}
	return faultSetCount(n, f)
}

// ScanOptions configures a CheckScan.
type ScanOptions struct {
	// Workers is the number of goroutines scanning fault-set ranges: ≤ 0
	// selects GOMAXPROCS. The Result is identical at every worker count.
	Workers int
	// OnProgress, when non-nil, streams one Progress snapshot per processed
	// fault set (see ProgressFunc for the concurrency contract).
	OnProgress ProgressFunc
	// Store, when non-nil, makes the scan durable: the contiguous prefix of
	// completed fault sets and its aggregate work counters are checkpointed
	// periodically, a fresh scan resumes past the persisted prefix with
	// verdict, witness, and counter totals identical to an uninterrupted
	// run, and settled verdicts are cached by the canonical graph encoding
	// (Result.CacheHit) so repeated topologies skip enumeration entirely.
	// Store errors abort the scan.
	Store statestore.Backend
	// CheckpointEvery is the fault-set interval between checkpoint writes
	// (0 = DefaultCheckpointEvery); a time-based flush runs alongside it.
	// The cadence never affects results, only resume freshness.
	CheckpointEvery int
}

// scanRangeSize is how many consecutive fault sets a CheckScan goroutine
// claims at a time: large enough that claims and unrankings are rare next
// to the scan itself, small enough to balance the tail across goroutines
// and to bound the work wasted above a violation.
const scanRangeSize = 8

// CheckScan is the full exact-check coordinator behind CheckThreshold and
// CheckParallel: it decides the Theorem 1 condition at the given in-link
// threshold with a configurable worker count, honoring ctx, streaming
// per-fault-set progress, and — with ScanOptions.Store — checkpointing the
// scan for crash-safe resume plus caching the settled verdict.
//
// It is a small range scheduler: each of its goroutines owns a
// ShardScanner and claims scanRangeSize-long index ranges from one shared
// counter, journaling every satisfied fault set into the scan frontier.
// After a violation at index v no range above v is claimed, and the Result
// is built by the rule the distributed coordinator uses (see shard.go) —
// so verdict, witness, and every counter are identical at every worker
// count, and so is the verdict the Store caches.
//
// Cancellation is checked between fault sets — never inside the candidate
// enumeration — so CheckScan returns within one fault set's scan time of
// ctx being canceled. On cancellation (or any error) the returned Result
// carries the frontier — the contiguous prefix of satisfied fault sets and
// its work counters — but Satisfied and Witness are meaningless; the error
// wraps ctx.Err() together with how far the scan got. With a Store, an
// interrupted scan flushes a final checkpoint before returning, so the next
// CheckScan with the same store resumes there.
func CheckScan(ctx context.Context, g *graph.Graph, f, threshold int, opts ScanOptions) (Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	total, err := scanExtent(g, f, threshold)
	if err != nil {
		return Result{}, err
	}
	st, cached, err := loadScanState(ctx, opts.Store, g, f, threshold, opts.CheckpointEvery)
	if err != nil {
		return Result{}, err
	}
	if cached != nil {
		return *cached, nil
	}
	skip, _ := st.resumePoint()
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = int(max(1, min(int64(workers), (total-skip+scanRangeSize-1)/scanRangeSize)))
	reportedTotal := totalFaultSets(g.N(), f)

	var (
		next    atomic.Int64 // first unclaimed fault-set index
		limit   atomic.Int64 // claims stop here: the lowest violation, total, or -1 on error
		done    atomic.Int64 // fault sets completed, for OnProgress
		mu      sync.Mutex   // guards viol and scanErr, and every write to limit
		viol    RangeResult
		scanErr error
	)
	next.Store(skip)
	limit.Store(total)
	done.Store(skip)
	satisfied := func(i int64, delta checkCounters) error {
		if err := st.completeSpan(ctx, i, i+1, delta); err != nil {
			return err
		}
		if opts.OnProgress != nil {
			opts.OnProgress(Progress{FaultSetsDone: done.Add(1), FaultSetsTotal: reportedTotal})
		}
		return nil
	}
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			s := newShardScanner(g, f, threshold, total)
			for {
				lo := next.Add(scanRangeSize) - scanRangeSize
				hi := min(lo+scanRangeSize, limit.Load())
				if lo >= hi {
					return
				}
				rr, err := s.scanRange(ctx, lo, hi, satisfied)
				if err != nil || rr.Violation >= 0 {
					mu.Lock()
					switch {
					case err != nil:
						if scanErr == nil {
							scanErr = err
						}
						limit.Store(-1)
					case rr.Violation < limit.Load():
						viol = rr
						limit.Store(rr.Violation)
					}
					mu.Unlock()
					return
				}
			}
		}()
	}
	wg.Wait()

	// The Result rule of shard.go: the frontier, or on a violation at v the
	// aggregate over [0, v) plus v's own early-exit counters.
	frontier, agg := st.position()
	res := Result{Satisfied: scanErr == nil && viol.Witness == nil, FaultSetsResumed: skip}
	if scanErr == nil && viol.Witness != nil {
		res.Witness = viol.Witness
		frontier = viol.Violation + 1
		agg.Add(viol.Partial)
	}
	res.FaultSetsExamined = frontier
	res.CandidatesExamined, res.CandidatesPruned, res.MemoHits = agg.Candidates, agg.Pruned, agg.MemoHits
	if scanErr != nil {
		// The verdict is undecided on an interrupted scan. Flush a final
		// checkpoint (on a fresh context — ctx is the canceled one) so a
		// resume loses at most the out-of-order tail.
		if ctx.Err() != nil {
			st.flush(context.Background()) // best effort; the scan error wins
			return res, fmt.Errorf("condition: check canceled after %d/%d fault sets: %w",
				frontier, reportedTotal, context.Cause(ctx))
		}
		return res, scanErr
	}
	if err := st.finish(ctx, res); err != nil {
		return res, err
	}
	return res, nil
}

// CheckParallel is Check with the fault-set enumeration fanned out across
// worker goroutines — CheckScan at the synchronous threshold, without
// progress streaming or persistence. The Result is identical to Check's.
//
// The speedup tracks core count when the cost is spread over many fault
// sets (large n, f ≥ 2) — per-fault-set work is independent — though the
// per-fault-set journaling caps the gain on scans of many cheap fault sets.
func CheckParallel(ctx context.Context, g *graph.Graph, f, workers int) (Result, error) {
	return CheckScan(ctx, g, f, SyncThreshold(f), ScanOptions{Workers: workers})
}
