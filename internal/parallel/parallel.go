// Package parallel provides the shared bounded worker pool used by every
// hot path in the reproduction: the KDE separable convolution, the
// measurement pipeline's per-peer and per-AS stages, and the experiments'
// per-AS fan-outs.
//
// The pool is deliberately deterministic-friendly:
//
//   - Work is partitioned by *index* (For/ForEach) or into *fixed-size
//     blocks* (Blocks) whose boundaries depend only on the item count,
//     never on the worker count. Callers that write results into
//     index-addressed slots therefore produce byte-identical output for
//     any Workers setting.
//   - Errors carry their index: after all work finishes, the error at the
//     lowest index wins, so the returned error is the same regardless of
//     goroutine scheduling.
//   - Panics are recovered in the workers and converted into a
//     *PanicError carrying the panicking goroutine's captured stack,
//     selected with the same lowest-index-wins rule as plain errors. A
//     panicking callback therefore surfaces as an ordinary error at the
//     call site instead of crashing the process from an anonymous
//     goroutine — and the inline workers==1 path converts identically,
//     so the outcome is the same for every worker count.
//   - Cancellation is cooperative at block boundaries: every entry point
//     takes a context.Context, workers stop claiming blocks once it is
//     done, and the pool returns ctx.Err(). A cancelled pool leaks no
//     goroutines (workers exit through the normal WaitGroup path).
//
// A workers argument <= 0 selects runtime.GOMAXPROCS(0); 1 runs inline on
// the calling goroutine with no synchronization at all.
package parallel

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"eyeballas/internal/obs"
)

// PanicError is a worker panic recovered by the pool and converted into
// an error, so a panicking callback cannot crash the process from an
// anonymous goroutine or unwind across package boundaries. Value is the
// recovered panic value; Stack is the panicking goroutine's stack,
// captured at recover time (the context a bare re-panic would lose).
type PanicError struct {
	Value any
	Stack []byte
}

// Error renders the panic value; the captured stack is available on the
// struct for logs and crash reports.
func (e *PanicError) Error() string {
	return fmt.Sprintf("parallel: worker panic: %v", e.Value)
}

// Metrics is the pool's instrumentation bundle: how many blocks were
// dispatched, how long each one waited in the queue (from pool start to
// pickup), how long it ran, and per-worker busy time. All observations
// are timing-only side channels — enabling them never changes what the
// pool computes or in what decomposition.
type Metrics struct {
	reg    *obs.Registry
	blocks *obs.Counter
	wait   *obs.Histogram
	block  *obs.Histogram

	mu   sync.Mutex
	busy []*obs.Counter // per worker index, created lazily
}

// MetricsFrom builds the pool metrics backed by reg (nil reg → nil
// Metrics, the disabled state).
func MetricsFrom(reg *obs.Registry) *Metrics {
	if reg == nil {
		return nil
	}
	return &Metrics{
		reg:    reg,
		blocks: reg.Counter("eyeball_parallel_blocks_total"),
		wait:   reg.Histogram("eyeball_parallel_queue_wait_seconds", obs.LatencyBuckets()),
		block:  reg.Histogram("eyeball_parallel_block_seconds", obs.LatencyBuckets()),
	}
}

// busyCounter returns the busy-time counter for one worker index.
func (m *Metrics) busyCounter(w int) *obs.Counter {
	m.mu.Lock()
	defer m.mu.Unlock()
	for len(m.busy) <= w {
		m.busy = append(m.busy,
			m.reg.Counter("eyeball_parallel_worker_busy_ns_total", "worker", strconv.Itoa(len(m.busy))))
	}
	return m.busy[w]
}

// metrics is the process-wide pool instrumentation, installed by the
// CLIs via SetMetrics. The pool reads it with one atomic pointer load
// per pool invocation (not per block), so the disabled state costs one
// load and a branch.
var metrics atomic.Pointer[Metrics]

// SetMetrics installs (or, with nil, removes) the pool's metrics sink.
func SetMetrics(m *Metrics) { metrics.Store(m) }

// recordBlock folds one finished block into the metrics.
func (m *Metrics) recordBlock(worker int, poolStart, blockStart time.Time, end time.Time) {
	m.blocks.Inc()
	m.wait.Observe(blockStart.Sub(poolStart).Seconds())
	d := end.Sub(blockStart)
	m.block.Observe(d.Seconds())
	m.busyCounter(worker).Add(int64(d))
}

// DefaultWorkers is the worker count used when a caller passes
// workers <= 0: the process's GOMAXPROCS.
func DefaultWorkers() int { return runtime.GOMAXPROCS(0) }

// Resolve normalizes a workers knob against n units of work: non-positive
// values become DefaultWorkers, and the result never exceeds n (there is
// no point parking goroutines with nothing to do).
func Resolve(workers, n int) int {
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// DefaultBlock picks a block size for Blocks when the caller passes
// block <= 0. It is a fixed function of n only — independent of the
// worker count — so the decomposition (and therefore any
// decomposition-sensitive arithmetic) is identical for every Workers
// setting: at most 256 blocks, at least 1 index each.
func DefaultBlock(n int) int {
	b := (n + 255) / 256
	if b < 1 {
		b = 1
	}
	return b
}

// For runs fn(i) for every i in [0, n) on up to workers goroutines.
// Indexes are dispatched one at a time (good load balancing for per-item
// work of uneven cost, e.g. per-AS KDE surfaces). All indexes are visited
// even after a failure; the error with the lowest index is returned.
// When ctx is cancelled the pool stops dispatching, drains, and returns
// ctx.Err().
func For(ctx context.Context, workers, n int, fn func(i int) error) error {
	return blocks(ctx, workers, n, 1, func(lo, hi int) (int, error) {
		for i := lo; i < hi; i++ {
			if err := fn(i); err != nil {
				return i, err
			}
		}
		return 0, nil
	})
}

// ForEach runs fn(i, items[i]) for every item on up to workers
// goroutines, with For's dispatch, error, and cancellation semantics.
func ForEach[T any](ctx context.Context, workers int, items []T, fn func(i int, item T) error) error {
	return For(ctx, workers, len(items), func(i int) error { return fn(i, items[i]) })
}

// Blocks partitions [0, n) into consecutive blocks of the given size (the
// last block may be short; block <= 0 means DefaultBlock(n)) and runs
// fn(lo, hi) for each block on up to workers goroutines. Block boundaries
// depend only on n and block — never on workers — so per-block arithmetic
// decomposes identically for every worker count. An error is attributed
// to its block's lo index; the lowest one wins. Cancellation is observed
// between blocks: once ctx is done no further block starts, running
// blocks finish, and the pool returns ctx.Err().
func Blocks(ctx context.Context, workers, n, block int, fn func(lo, hi int) error) error {
	if block <= 0 {
		block = DefaultBlock(n)
	}
	return blocks(ctx, workers, n, block, func(lo, hi int) (int, error) {
		return lo, fn(lo, hi)
	})
}

// indexed pairs a work-item index with its outcome, for lowest-index-wins
// selection.
type indexed struct {
	idx int
	set bool
}

// blocks is the single pool implementation behind For and Blocks. fn
// processes [lo, hi) and reports the index of its failure (ignored when
// the error is nil). A nil ctx is treated as context.Background().
func blocks(ctx context.Context, workers, n, block int, fn func(lo, hi int) (int, error)) error {
	if n <= 0 {
		return nil
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	nblocks := (n + block - 1) / block
	workers = Resolve(workers, nblocks)
	m := metrics.Load()
	var poolStart time.Time
	if m != nil {
		poolStart = time.Now()
	}
	if workers == 1 {
		// Inline fast path: no goroutines, no synchronization. Like the
		// pooled path it visits every block after a failure and keeps
		// the first error, which is necessarily the lowest-index one;
		// panics convert to *PanicError exactly like the pooled path so
		// callers see the same outcome for every worker count.
		var firstErr error
		for b := 0; b < nblocks; b++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			lo := b * block
			hi := lo + block
			if hi > n {
				hi = n
			}
			var blockStart time.Time
			if m != nil {
				blockStart = time.Now()
			}
			_, err := runBlock(fn, lo, hi)
			if m != nil {
				m.recordBlock(0, poolStart, blockStart, time.Now())
			}
			if err != nil && firstErr == nil {
				firstErr = err
			}
		}
		return firstErr
	}

	var (
		wg   sync.WaitGroup
		next atomic.Int64

		mu       sync.Mutex
		firstErr error
		errAt    = indexed{idx: math.MaxInt}
	)
	next.Store(-1)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for {
				// Cooperative cancellation: stop claiming blocks once the
				// context is done. Running blocks are never interrupted,
				// so the caller regains control within one block boundary.
				if ctx.Err() != nil {
					return
				}
				b := int(next.Add(1))
				if b >= nblocks {
					return
				}
				lo := b * block
				hi := lo + block
				if hi > n {
					hi = n
				}
				var blockStart time.Time
				if m != nil {
					blockStart = time.Now()
				}
				idx, err := runBlock(fn, lo, hi)
				if m != nil {
					m.recordBlock(worker, poolStart, blockStart, time.Now())
				}
				if err == nil {
					continue
				}
				mu.Lock()
				if !errAt.set || idx < errAt.idx {
					firstErr, errAt = err, indexed{idx: idx, set: true}
				}
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	// A cancelled pool may have skipped blocks, so any partial result is
	// untrustworthy: report the cancellation (deterministically) rather
	// than whichever block errors happened to land first.
	if err := ctx.Err(); err != nil {
		return err
	}
	return firstErr
}

// runBlock invokes fn over one block, converting a panic into a
// *PanicError attributed to the block's lo index, so the pool can select
// the lowest-index failure deterministically. The stack is captured
// inside the deferred recover — i.e. the panicking goroutine's own
// frames, the context a bare re-panic across goroutines would lose.
func runBlock(fn func(lo, hi int) (int, error), lo, hi int) (idx int, err error) {
	defer func() {
		if r := recover(); r != nil {
			idx, err = lo, &PanicError{Value: r, Stack: debug.Stack()}
		}
	}()
	return fn(lo, hi)
}
