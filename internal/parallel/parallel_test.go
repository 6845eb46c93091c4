package parallel

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestForVisitsAllOnce(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 7, 64} {
		t.Run(fmt.Sprintf("workers%d", workers), func(t *testing.T) {
			const n = 500
			visited := make([]int32, n)
			err := For(context.Background(), workers, n, func(i int) error {
				atomic.AddInt32(&visited[i], 1)
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			for i, v := range visited {
				if v != 1 {
					t.Fatalf("index %d visited %d times", i, v)
				}
			}
		})
	}
}

func TestForEachPassesItems(t *testing.T) {
	items := []string{"a", "b", "c", "d", "e"}
	got := make([]string, len(items))
	if err := ForEach(context.Background(), 4, items, func(i int, s string) error {
		got[i] = s
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i := range items {
		if got[i] != items[i] {
			t.Fatalf("index %d: got %q want %q", i, got[i], items[i])
		}
	}
}

func TestZeroItems(t *testing.T) {
	called := int32(0)
	ctx := context.Background()
	if err := For(ctx, 8, 0, func(int) error { atomic.AddInt32(&called, 1); return nil }); err != nil {
		t.Fatal(err)
	}
	if err := ForEach(ctx, 8, []int(nil), func(int, int) error { atomic.AddInt32(&called, 1); return nil }); err != nil {
		t.Fatal(err)
	}
	if err := Blocks(ctx, 8, 0, 16, func(int, int) error { atomic.AddInt32(&called, 1); return nil }); err != nil {
		t.Fatal(err)
	}
	if called != 0 {
		t.Fatalf("callback invoked %d times for empty input", called)
	}
}

func TestNilContextIsBackground(t *testing.T) {
	var visited int32
	//nolint:staticcheck // nil ctx is an explicitly documented no-op alias for Background.
	if err := For(nil, 4, 100, func(i int) error { atomic.AddInt32(&visited, 1); return nil }); err != nil {
		t.Fatal(err)
	}
	if visited != 100 {
		t.Fatalf("visited %d of 100", visited)
	}
}

func TestSingleItemSingleWorker(t *testing.T) {
	n := int32(0)
	err := For(context.Background(), 1, 1, func(i int) error {
		if i != 0 {
			t.Errorf("got index %d", i)
		}
		atomic.AddInt32(&n, 1)
		return nil
	})
	if err != nil || n != 1 {
		t.Fatalf("err=%v n=%d", err, n)
	}
}

// TestFirstErrorLowestIndex checks index-ordered error selection: among
// concurrent failures, the lowest index must win regardless of which
// goroutine records its error first. Run many rounds to give the race
// detector and the scheduler room to interleave.
func TestFirstErrorLowestIndex(t *testing.T) {
	const n = 300
	errLow := errors.New("low")
	errHigh := errors.New("high")
	for round := 0; round < 50; round++ {
		err := For(context.Background(), 8, n, func(i int) error {
			switch i {
			case 13:
				return errLow
			case 14, 100, n - 1:
				return errHigh
			}
			return nil
		})
		if !errors.Is(err, errLow) {
			t.Fatalf("round %d: got %v, want the lowest-index error", round, err)
		}
	}
}

// TestConcurrentFailuresAllIndexes makes every callback fail with a
// distinct error; index 0's error must always surface.
func TestConcurrentFailuresAllIndexes(t *testing.T) {
	const n = 128
	errs := make([]error, n)
	for i := range errs {
		errs[i] = fmt.Errorf("err %d", i)
	}
	for round := 0; round < 25; round++ {
		err := For(context.Background(), 16, n, func(i int) error { return errs[i] })
		if !errors.Is(err, errs[0]) {
			t.Fatalf("round %d: got %v, want %v", round, err, errs[0])
		}
	}
}

func TestErrorDoesNotAbortOtherIndexes(t *testing.T) {
	const n = 64
	var visited int32
	err := For(context.Background(), 4, n, func(i int) error {
		atomic.AddInt32(&visited, 1)
		if i == 0 {
			return errors.New("early")
		}
		return nil
	})
	if err == nil {
		t.Fatal("expected error")
	}
	// With >1 worker every index is still dispatched; with the inline
	// fast path (1 effective worker) the loop stops early, so only
	// require that a failure never deadlocks or loses work silently.
	if visited == 0 {
		t.Fatal("no indexes visited")
	}
}

// TestPanicBecomesError: a panicking callback must surface as a
// *PanicError at the call site — identically for the inline and pooled
// paths — carrying the panic value and a captured stack that names the
// panicking function.
func TestPanicBecomesError(t *testing.T) {
	for _, workers := range []int{1, 8} {
		t.Run(fmt.Sprintf("workers%d", workers), func(t *testing.T) {
			err := For(context.Background(), workers, 32, func(i int) error {
				if i == 7 {
					panic("boom 7")
				}
				return nil
			})
			var pe *PanicError
			if !errors.As(err, &pe) {
				t.Fatalf("got %v (%T), want *PanicError", err, err)
			}
			if s, ok := pe.Value.(string); !ok || s != "boom 7" {
				t.Fatalf("panic value %v, want \"boom 7\"", pe.Value)
			}
			if len(pe.Stack) == 0 {
				t.Fatal("no stack captured")
			}
			if !strings.Contains(err.Error(), "boom 7") {
				t.Fatalf("Error() = %q does not mention the panic value", err.Error())
			}
		})
	}
}

// TestPanicLowestIndexWins: with several panicking indexes, the reported
// error must be the lowest index's, deterministically.
func TestPanicLowestIndexWins(t *testing.T) {
	for round := 0; round < 25; round++ {
		err := For(context.Background(), 8, 200, func(i int) error {
			switch i {
			case 5, 6, 150:
				panic(fmt.Sprintf("panic %d", i))
			}
			return nil
		})
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("round %d: got %v (%T), want *PanicError", round, err, err)
		}
		if s, ok := pe.Value.(string); !ok || s != "panic 5" {
			t.Fatalf("round %d: panic value %v, want \"panic 5\"", round, pe.Value)
		}
	}
}

// TestPanicVsErrorLowestIndexWins: panics and plain errors compete under
// the same lowest-index rule; a panic at index 10 loses to an error at
// index 3 and beats an error at index 40.
func TestPanicVsErrorLowestIndexWins(t *testing.T) {
	errEarly := errors.New("early error")
	for round := 0; round < 25; round++ {
		err := For(context.Background(), 4, 50, func(i int) error {
			switch i {
			case 3:
				return errEarly
			case 10:
				panic("explode")
			}
			return nil
		})
		if !errors.Is(err, errEarly) {
			t.Fatalf("round %d: got %v, want the lower-index plain error", round, err)
		}
	}
	for round := 0; round < 25; round++ {
		err := For(context.Background(), 4, 50, func(i int) error {
			switch i {
			case 10:
				panic("explode")
			case 40:
				return errEarly
			}
			return nil
		})
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("round %d: got %v, want the lower-index *PanicError", round, err)
		}
	}
}

func TestBlocksPartitionExactly(t *testing.T) {
	for _, tc := range []struct{ n, block int }{
		{1, 1}, {7, 3}, {100, 1}, {100, 7}, {100, 100}, {100, 1000}, {4096, 64},
	} {
		for _, workers := range []int{1, 5} {
			covered := make([]int32, tc.n)
			err := Blocks(context.Background(), workers, tc.n, tc.block, func(lo, hi int) error {
				if lo >= hi || lo < 0 || hi > tc.n {
					return fmt.Errorf("bad block [%d,%d)", lo, hi)
				}
				if hi-lo > tc.block {
					return fmt.Errorf("block [%d,%d) exceeds size %d", lo, hi, tc.block)
				}
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&covered[i], 1)
				}
				return nil
			})
			if err != nil {
				t.Fatalf("n=%d block=%d workers=%d: %v", tc.n, tc.block, workers, err)
			}
			for i, c := range covered {
				if c != 1 {
					t.Fatalf("n=%d block=%d workers=%d: index %d covered %d times",
						tc.n, tc.block, workers, i, c)
				}
			}
		}
	}
}

// TestBlocksDecompositionIndependentOfWorkers: the default block
// boundaries must be a function of n only — the determinism guarantee the
// KDE engine relies on.
func TestBlocksDecompositionIndependentOfWorkers(t *testing.T) {
	boundaries := func(workers, n int) map[[2]int]bool {
		var mu sync.Mutex
		set := map[[2]int]bool{}
		if err := Blocks(context.Background(), workers, n, 0, func(lo, hi int) error {
			mu.Lock()
			set[[2]int{lo, hi}] = true
			mu.Unlock()
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return set
	}
	for _, n := range []int{1, 17, 255, 256, 257, 10000} {
		ref := boundaries(1, n)
		for _, workers := range []int{2, 3, 16} {
			got := boundaries(workers, n)
			if len(got) != len(ref) {
				t.Fatalf("n=%d: %d blocks at workers=%d, %d at workers=1", n, len(got), workers, len(ref))
			}
			for b := range ref {
				if !got[b] {
					t.Fatalf("n=%d workers=%d: block %v missing", n, workers, b)
				}
			}
		}
	}
}

func TestBlocksErrorLowestBlockWins(t *testing.T) {
	errA := errors.New("block 0")
	errB := errors.New("late block")
	for round := 0; round < 25; round++ {
		err := Blocks(context.Background(), 8, 1000, 10, func(lo, hi int) error {
			switch lo {
			case 40:
				return errA
			case 50, 990:
				return errB
			}
			return nil
		})
		if !errors.Is(err, errA) {
			t.Fatalf("round %d: got %v, want %v", round, err, errA)
		}
	}
}

// TestPreCancelledContext: a context that is already done must prevent
// any callback from running, for every worker count.
func TestPreCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 8} {
		var called int32
		err := For(ctx, workers, 1000, func(i int) error {
			atomic.AddInt32(&called, 1)
			return nil
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: got %v, want context.Canceled", workers, err)
		}
		if called != 0 {
			t.Fatalf("workers=%d: %d callbacks ran under a cancelled context", workers, called)
		}
	}
}

// TestCancellationStopsWithinOneBlock: once the context is cancelled,
// workers must stop claiming new blocks — the pool returns ctx.Err()
// having started, after cancel returned, at most one block per other
// worker, never the whole input. Only blocks that start after cancel
// returns are counted: a worker preempted before it calls cancel lets
// the others keep claiming, so a bound on all blocks run would depend on
// scheduling. Each other worker can have passed its ctx.Err() check
// before the cancel at most once; the cancelling worker checks after it.
func TestCancellationStopsWithinOneBlock(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers%d", workers), func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			const n, block = 10000, 1
			var (
				ran, late atomic.Int32
				cancelled atomic.Bool
			)
			err := Blocks(ctx, workers, n, block, func(lo, hi int) error {
				if cancelled.Load() {
					late.Add(1)
				}
				if ran.Add(1) == 5 {
					cancel() // cancel from inside the 5th block
					cancelled.Store(true)
				}
				return nil
			})
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("got %v, want context.Canceled", err)
			}
			if got := late.Load(); int(got) > workers-1 {
				t.Fatalf("%d blocks started after cancel returned (workers=%d, ran %d), want at most %d",
					got, workers, ran.Load(), workers-1)
			}
		})
	}
}

// TestCancellationBeatsBlockErrors: a cancelled pool may have skipped
// blocks, so ctx.Err() must win over whatever block errors landed —
// otherwise the reported error would depend on scheduling.
func TestCancellationBeatsBlockErrors(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	errBlock := errors.New("block failure")
	err := Blocks(ctx, 4, 1000, 1, func(lo, hi int) error {
		cancel()
		return errBlock
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled to win over block errors", err)
	}
}

// TestCancellationNoGoroutineLeak: a cancelled pool must exit through
// the normal WaitGroup path and leave no workers behind.
func TestCancellationNoGoroutineLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	for round := 0; round < 20; round++ {
		ctx, cancel := context.WithCancel(context.Background())
		_ = Blocks(ctx, 8, 5000, 1, func(lo, hi int) error {
			if lo == 10 {
				cancel()
			}
			return nil
		})
		cancel()
	}
	// Give exiting goroutines a moment; retry to tolerate unrelated
	// runtime churn.
	deadline := time.Now().Add(2 * time.Second)
	for {
		runtime.GC()
		after := runtime.NumGoroutine()
		if after <= before+2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d before, %d after 20 cancelled pools", before, after)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestCancellationReturnsPromptly: cancellation must take effect at the
// next block boundary — a pool of slow blocks returns well before it
// would have finished all of them.
func TestCancellationReturnsPromptly(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const n = 1000 // 1000 blocks × 1ms each = 1s+ if cancellation were ignored
	start := time.Now()
	var ran int32
	err := Blocks(ctx, 2, n, 1, func(lo, hi int) error {
		if atomic.AddInt32(&ran, 1) == 3 {
			cancel()
		}
		time.Sleep(time.Millisecond)
		return nil
	})
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	// Generous margin: the pool only has to stop claiming blocks, so a
	// few in-flight ones may finish, but nothing near the full second.
	if elapsed > 500*time.Millisecond {
		t.Fatalf("cancelled pool took %v to return", elapsed)
	}
}

func TestResolve(t *testing.T) {
	if got := Resolve(0, 100); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Resolve(0, 100) = %d, want GOMAXPROCS", got)
	}
	if got := Resolve(-3, 100); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Resolve(-3, 100) = %d, want GOMAXPROCS", got)
	}
	if got := Resolve(8, 3); got != 3 {
		t.Errorf("Resolve(8, 3) = %d, want 3", got)
	}
	if got := Resolve(8, 0); got != 1 {
		t.Errorf("Resolve(8, 0) = %d, want 1", got)
	}
	if got := Resolve(2, 100); got != 2 {
		t.Errorf("Resolve(2, 100) = %d, want 2", got)
	}
}

func TestDefaultBlock(t *testing.T) {
	for _, tc := range []struct{ n, want int }{
		{0, 1}, {1, 1}, {256, 1}, {257, 2}, {10000, 40},
	} {
		if got := DefaultBlock(tc.n); got != tc.want {
			t.Errorf("DefaultBlock(%d) = %d, want %d", tc.n, got, tc.want)
		}
	}
}
