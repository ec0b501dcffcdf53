package iabc

// The facade's distributed arm: WithCoordinator / WithWorkerPool route
// Check, MaxF, and Sweep through internal/distrib's coordinator–worker job
// protocol, and Work is the worker entry point remote processes call to
// join. The contract mirrors WithWorkers: results are bit-identical to the
// single-process run at any worker count — and, here, under any schedule of
// worker crashes and lease re-executions.

import (
	"context"
	"sync"

	"iabc/internal/distrib"
)

// Work joins the coordinator listening at addr (see WithCoordinator or
// `iabc coordinate`) and processes jobs until the coordinator finishes —
// a clean nil return — or ctx is canceled. Workers are stateless: any
// number may join, leave, or crash without affecting results.
func Work(ctx context.Context, addr string) error {
	return distrib.Work(ctx, addr, distrib.WorkerOptions{})
}

// distributed reports whether the call should run through a coordinator.
func (c *config) distributed() bool { return c.coordAddr != "" || c.workerPool > 0 }

// startCoordinator binds the call's coordinator and starts the local worker
// pool. It returns once every pool worker has joined — or one of them has
// exited, or ctx is done — so the scan starts with the whole pool and the
// coordinator's report counts every pool worker, however fast the scan. The
// returned stop func tears both down; it is safe to call after the work
// completed or failed.
func (c *config) startCoordinator(ctx context.Context) (*distrib.Coordinator, func(), error) {
	addr := c.coordAddr
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	coord := distrib.NewCoordinator(distrib.Options{})
	if err := coord.Listen(addr); err != nil {
		return nil, nil, err
	}
	wctx, cancel := context.WithCancel(context.Background())
	joinCtx, joinDone := context.WithCancel(ctx)
	defer joinDone()
	var wg sync.WaitGroup
	for i := 0; i < c.workerPool; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer joinDone()
			distrib.Work(wctx, coord.Addr(), distrib.WorkerOptions{})
		}()
	}
	coord.WaitWorkers(joinCtx, int64(c.workerPool))
	stop := func() {
		coord.Close()
		cancel()
		wg.Wait()
	}
	return coord, stop, nil
}

// emitCoordinatorEvent reports the scheduling summary once the work is done.
func emitCoordinatorEvent(obs Observer, coord *distrib.Coordinator) {
	if obs == nil {
		return
	}
	s := coord.Stats()
	obs(Event{Kind: EventCoordinator, Name: coord.Addr(), Done: s.JobsGranted, Total: s.WorkersSeen})
}
