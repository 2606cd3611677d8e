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
// hits, cancellation truncation, and how long a worker waits for its
// first item). Each worker adds its dispatch count once, when it exits.
var (
	mTasksDispatched = obsv.NewCounter("parallel_tasks_dispatched_total",
		"work items handed to a pool worker")
	mTasksPanicked = obsv.NewCounter("parallel_tasks_panicked_total",
		"work items whose function panicked (recovered into PanicError)")
	mTasksCanceled = obsv.NewCounter("parallel_tasks_canceled_total",
		"work items never dispatched because the context was done")
	mQueueWait = obsv.NewSummary("parallel_queue_wait_seconds",
		"delay between fan-out start and a worker's first item, one sample per worker")
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
//
// Workers claim contiguous blocks of indexes (see blockSize), so one
// shared atomic add covers a block, and each worker keeps its own
// dispatch count and first error: no per-item shared state.
func ForEachErrCtx(ctx context.Context, n, workers int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	workers = Workers(workers, n)
	block := blockSize(n, workers)
	start := time.Now()
	var next atomic.Int64
	results := make([]workerResult, workers)
	work := func(r *workerResult) {
		defer func() { mTasksDispatched.Add(int64(r.ran)) }()
		for {
			lo := int(next.Add(int64(block))) - block
			if lo >= n {
				return
			}
			hi := min(lo+block, n)
			for i := lo; i < hi; i++ {
				if ctx.Err() != nil {
					return
				}
				if r.ran == 0 {
					mQueueWait.Observe(time.Since(start).Seconds())
				}
				r.ran++
				// A worker's blocks ascend, so its first error is its
				// lowest-index one.
				if err := call(fn, i); err != nil && r.err == nil {
					r.err, r.errAt = err, i
				}
			}
		}
	}

	if workers == 1 {
		work(&results[0])
	} else {
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := range results {
			go func(r *workerResult) {
				defer wg.Done()
				work(r)
			}(&results[w])
		}
		wg.Wait()
	}

	var first *workerResult
	ran := 0
	for w := range results {
		r := &results[w]
		ran += r.ran
		if r.err != nil && (first == nil || r.errAt < first.errAt) {
			first = r
		}
	}
	if first != nil {
		return first.err
	}
	if ran < n {
		mTasksCanceled.Add(int64(n - ran))
		return context.Cause(ctx)
	}
	return nil
}

// workerResult is one worker's tally: items it ran and its first error.
type workerResult struct {
	ran   int
	err   error
	errAt int
}

// blocksPerWorker is how many blocks each worker's share of the index
// space is cut into. Blocks are claimed first come, first served, so the
// workers finish at most one block apart: at 64 blocks per worker that
// is about 1.5 % of the fan-out, while a fan-out over tens of thousands
// of microsecond items pays one shared atomic add per hundreds of items.
const blocksPerWorker = 64

// blockSize returns how many consecutive indexes a worker claims at a
// time: at least one, and small enough that every worker gets about
// blocksPerWorker blocks.
func blockSize(n, workers int) int {
	return max(1, n/(workers*blocksPerWorker))
}

// call runs fn(i), recovering a panic into a *PanicError.
func call(fn func(i int) error, i int) (err error) {
	defer func() {
		if r := recover(); r != nil {
			mTasksPanicked.Inc()
			err = &PanicError{Index: i, Value: r, Stack: debug.Stack()}
		}
	}()
	return fn(i)
}
