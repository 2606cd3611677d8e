package parallel

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestWorkersNormalization(t *testing.T) {
	if got := Workers(0, 100); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers(0, 100) = %d, want GOMAXPROCS", got)
	}
	if got := Workers(-3, 100); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers(-3, 100) = %d, want GOMAXPROCS", got)
	}
	if got := Workers(8, 3); got != 3 {
		t.Errorf("Workers(8, 3) = %d, want 3 (capped at n)", got)
	}
	if got := Workers(2, 0); got != 1 {
		t.Errorf("Workers(2, 0) = %d, want 1", got)
	}
}

func TestForEachCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 7, 0} {
		const n = 1000
		counts := make([]atomic.Int32, n)
		if err := ForEachCtx(context.Background(), n, workers, func(i int) { counts[i].Add(1) }); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range counts {
			if c := counts[i].Load(); c != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, c)
			}
		}
	}
}

func TestForEachEmpty(t *testing.T) {
	ran := false
	for _, n := range []int{0, -5} {
		if err := ForEachCtx(context.Background(), n, 4, func(int) { ran = true }); err != nil {
			t.Errorf("n=%d: %v", n, err)
		}
	}
	if ran {
		t.Error("fn ran for empty index space")
	}
}

func TestForEachErrReturnsLowestIndexError(t *testing.T) {
	errA, errB := errors.New("a"), errors.New("b")
	for _, workers := range []int{1, 4} {
		err := ForEachErrCtx(context.Background(), 10, workers, func(i int) error {
			switch i {
			case 7:
				return errA
			case 3:
				return errB
			}
			return nil
		})
		if err != errB {
			t.Errorf("workers=%d: err = %v, want error from index 3", workers, err)
		}
	}
	if err := ForEachErrCtx(context.Background(), 10, 4, func(int) error { return nil }); err != nil {
		t.Errorf("unexpected error: %v", err)
	}
}

// TestForEachErrCtxPanicLowestIndex injects panics at several indexes
// and requires the deterministic lowest-index PanicError, with the
// stack attached, at every worker count, and each recovered panic
// counted once in parallel_tasks_panicked_total.
func TestForEachErrCtxPanicLowestIndex(t *testing.T) {
	for _, workers := range []int{1, 2, 8, 0} {
		panicked := mTasksPanicked.Value()
		err := ForEachErrCtx(context.Background(), 50, workers, func(i int) error {
			switch i {
			case 11, 29, 41:
				panic("boom")
			}
			return nil
		})
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("workers=%d: err = %v, want *PanicError", workers, err)
		}
		if pe.Index != 11 {
			t.Errorf("workers=%d: panic index = %d, want 11 (lowest)", workers, pe.Index)
		}
		if pe.Value != "boom" {
			t.Errorf("workers=%d: panic value = %v", workers, pe.Value)
		}
		if len(pe.Stack) == 0 || !strings.Contains(pe.Error(), "boom") {
			t.Errorf("workers=%d: PanicError lacks stack or message: %q", workers, pe.Error())
		}
		if got := mTasksPanicked.Value() - panicked; got != 3 {
			t.Errorf("workers=%d: panicked counter moved by %d, want 3", workers, got)
		}
	}
}

// TestForEachErrCtxErrorBeatsLaterPanic mixes plain errors and panics:
// the lowest failing index wins regardless of failure kind.
func TestForEachErrCtxErrorBeatsLaterPanic(t *testing.T) {
	errLow := errors.New("low")
	err := ForEachErrCtx(context.Background(), 20, 4, func(i int) error {
		if i == 3 {
			return errLow
		}
		if i == 7 {
			panic("later")
		}
		return nil
	})
	if err != errLow {
		t.Errorf("err = %v, want the index-3 error", err)
	}
}

// TestForEachErrCtxCancelStopsDispatch cancels mid-run and requires
// that dispatch stops: not every index runs, and the reported error is
// the cancellation cause.
func TestForEachErrCtxCancelStopsDispatch(t *testing.T) {
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		var ran atomic.Int64
		const n = 10000
		err := ForEachErrCtx(ctx, n, workers, func(i int) error {
			if ran.Add(1) == 5 {
				cancel()
			}
			return nil
		})
		if !errors.Is(err, context.Canceled) {
			t.Errorf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if got := ran.Load(); got >= n {
			t.Errorf("workers=%d: all %d items ran despite cancellation", workers, got)
		}
		cancel()
	}
}

// TestForEachErrCtxPreCanceled: a context canceled before the call
// dispatches nothing, returns the cause, and counts every item in
// parallel_tasks_canceled_total.
func TestForEachErrCtxPreCanceled(t *testing.T) {
	canceled := mTasksCanceled.Value()
	cause := errors.New("deadline blown")
	ctx, cancel := context.WithCancelCause(context.Background())
	cancel(cause)
	ran := false
	err := ForEachErrCtx(ctx, 8, 4, func(i int) error { ran = true; return nil })
	if !errors.Is(err, cause) {
		t.Errorf("err = %v, want cause %v", err, cause)
	}
	if ran {
		t.Error("items dispatched under a pre-canceled context")
	}
	if got := mTasksCanceled.Value() - canceled; got != 8 {
		t.Errorf("canceled counter moved by %d, want 8", got)
	}
}

// TestForEachCtxNoGoroutineLeak runs canceled and panicking fan-outs and
// requires the goroutine count to return to baseline — the pool must
// always reap its workers. Run under -race in the check gate.
func TestForEachCtxNoGoroutineLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	for round := 0; round < 20; round++ {
		ctx, cancel := context.WithCancel(context.Background())
		_ = ForEachErrCtx(ctx, 500, 8, func(i int) error {
			if i == 10 {
				cancel()
			}
			if i%97 == 0 {
				panic(i)
			}
			return nil
		})
		cancel()
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if runtime.NumGoroutine() <= before {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
		}
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
}

// TestForEachTelemetryPerWorker pins the pool's bookkeeping to its
// workers, not its items: a fan-out adds one parallel_queue_wait_seconds
// sample per worker that ran an item (the wait for its first one), and
// parallel_tasks_dispatched_total still counts every item once, at any
// worker count.
func TestForEachTelemetryPerWorker(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		const n = 5000
		waits, dispatched := mQueueWait.Count(), mTasksDispatched.Value()
		if err := ForEachCtx(context.Background(), n, workers, func(int) {}); err != nil {
			t.Fatal(err)
		}
		if got := mQueueWait.Count() - waits; got < 1 || got > int64(workers) {
			t.Errorf("workers=%d: %d queue-wait samples for %d items, want 1..%d", workers, got, n, workers)
		}
		if got := mTasksDispatched.Value() - dispatched; got != n {
			t.Errorf("workers=%d: dispatched counter moved by %d, want %d", workers, got, n)
		}
	}
}

// TestBlockSizeKeepsWorkersBalanced: blocks are never empty, and every
// worker's share is cut into many blocks once there are enough items.
func TestBlockSizeKeepsWorkersBalanced(t *testing.T) {
	for _, tc := range []struct{ n, workers int }{{1, 1}, {10, 4}, {2700, 2}, {57000, 1}, {57000, 2}, {1 << 20, 8}} {
		b := blockSize(tc.n, tc.workers)
		if b < 1 {
			t.Fatalf("blockSize(%d, %d) = %d", tc.n, tc.workers, b)
		}
		if blocks := (tc.n + b - 1) / b; tc.n >= tc.workers*blocksPerWorker && blocks < tc.workers*blocksPerWorker {
			t.Errorf("blockSize(%d, %d) = %d: %d blocks, want ≥ %d", tc.n, tc.workers, b, blocks, tc.workers*blocksPerWorker)
		}
	}
}
