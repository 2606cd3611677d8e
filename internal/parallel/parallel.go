// Package parallel provides the small worker-pool primitives the
// analysis path fans out on: index-space iteration with a bounded number
// of goroutines. Results are always written to caller-owned, per-index
// slots, so every user of this package is deterministic by construction —
// worker count changes scheduling, never output.
//
// ForEachCtx and ForEachErrCtx carry the failure semantics long-running
// pipelines need: workers stop dispatching new items once the context is
// done, and a panic in any item is recovered into a per-index PanicError
// instead of crashing the process. Error selection is by lowest index, so
// the reported failure is deterministic regardless of scheduling.
package parallel

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"manrsmeter/internal/obsv"
)

// Pool metrics, exported on the Default registry so the daemons' admin
// endpoints surface fan-out behavior (dispatch volume, panic isolation
// hits, cancellation truncation, and how long items queue before a
// worker picks them up).
var (
	mTasksDispatched = obsv.NewCounter("parallel_tasks_dispatched_total",
		"work items handed to a pool worker")
	mTasksPanicked = obsv.NewCounter("parallel_tasks_panicked_total",
		"work items whose function panicked (recovered into PanicError)")
	mTasksCanceled = obsv.NewCounter("parallel_tasks_canceled_total",
		"work items never dispatched because the context was done")
	mQueueWait = obsv.NewSummary("parallel_queue_wait_seconds",
		"delay between fan-out start and item dispatch")
)

// PanicError is a panic recovered from a worker item, converted into an
// error so one bad item cannot crash the whole fan-out. It records the
// index that panicked, the recovered value, and the goroutine stack at
// the point of the panic.
type PanicError struct {
	// Index is the item index whose function panicked.
	Index int
	// Value is the value passed to panic().
	Value any
	// Stack is the formatted goroutine stack captured inside recover.
	Stack []byte
}

// Error renders the panic with its stack, so a log line carries enough
// to debug the crash even though the process survived it.
func (e *PanicError) Error() string {
	return fmt.Sprintf("parallel: panic at index %d: %v\n%s", e.Index, e.Value, e.Stack)
}

// Workers normalizes a worker-count option: values ≤ 0 mean "one worker
// per available CPU" (GOMAXPROCS), and the count is never larger than n,
// the number of work items.
func Workers(workers, n int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// ForEachCtx invokes fn(i) for every i in [0, n) using at most workers
// goroutines (≤ 0 means GOMAXPROCS). fn must write any results into
// per-index storage; no ordering between calls is imposed. Workers check
// ctx between items and stop dispatching new ones once it is done (items
// already started run to completion), and a panicking item is recovered
// into a *PanicError instead of crashing the process.
//
// The returned error is deterministic: the *PanicError of the lowest
// index that panicked, else the context's cancellation cause when not
// every item ran, else nil.
func ForEachCtx(ctx context.Context, n, workers int, fn func(i int)) error {
	return ForEachErrCtx(ctx, n, workers, func(i int) error {
		fn(i)
		return nil
	})
}

// ForEachErrCtx is the fallible, context-aware fan-out underlying
// ForEachCtx. Every dispatched item runs even when earlier ones fail
// (per-index slots stay independently valid); only cancellation stops
// dispatch. Panics are recovered into *PanicError values carrying the
// stack.
//
// Error selection is by lowest index among failed items, so the reported
// error does not depend on scheduling. When the context is canceled
// before every item could run and no item failed, the context's cause is
// returned.
func ForEachErrCtx(ctx context.Context, n, workers int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	start := time.Now()
	errs := make([]error, n)
	var dispatched atomic.Int64
	run := func(i int) {
		mTasksDispatched.Inc()
		mQueueWait.Observe(time.Since(start).Seconds())
		defer func() {
			if r := recover(); r != nil {
				mTasksPanicked.Inc()
				errs[i] = &PanicError{Index: i, Value: r, Stack: debug.Stack()}
			}
		}()
		errs[i] = fn(i)
	}

	workers = Workers(workers, n)
	if workers == 1 {
		for i := 0; i < n; i++ {
			if ctx.Err() != nil {
				break
			}
			dispatched.Add(1)
			run(i)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer wg.Done()
				for ctx.Err() == nil {
					i := int(next.Add(1)) - 1
					if i >= n {
						return
					}
					dispatched.Add(1)
					run(i)
				}
			}()
		}
		wg.Wait()
	}

	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	if d := int(dispatched.Load()); d < n {
		mTasksCanceled.Add(int64(n - d))
		return context.Cause(ctx)
	}
	return nil
}
