package parallel

import (
	"context"
	"errors"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"
)

// intStream is a test fill function over 0..n-1, optionally delivering
// its final batch alongside io.EOF (eofWithData) instead of on a
// separate zero-item call.
type intStream struct {
	n, off      int
	eofWithData bool
}

func (s *intStream) fill(buf []int) (int, error) {
	k := 0
	for k < len(buf) && s.off < s.n {
		buf[k] = s.off
		k++
		s.off++
	}
	if s.off == s.n && (s.eofWithData || k == 0) {
		return k, io.EOF
	}
	return k, nil
}

// runBatched pumps 0..n-1 through Batched with work(i,x) = 3x+1 and a
// fold that records every (batch contents, results) pair in order.
func runBatched(t *testing.T, n, workers, batch int, eofWithData bool) (folds [][]int, items []int) {
	t.Helper()
	st := &intStream{n: n, eofWithData: eofWithData}
	err := Batched(context.Background(), workers, batch,
		st.fill,
		func(i int, x int) int { return 3*x + 1 },
		func(b []int, res []int) {
			folds = append(folds, append([]int(nil), res...))
			items = append(items, b...)
		})
	if err != nil {
		t.Fatalf("n=%d workers=%d batch=%d: %v", n, workers, batch, err)
	}
	return folds, items
}

// TestBatchedDeterministicAcrossWorkersAndBatch: the sequence of folded
// results must be identical for every worker count and batch size — the
// pump's contract that lets BuildStream inherit determinism instead of
// re-arguing it.
func TestBatchedDeterministicAcrossWorkersAndBatch(t *testing.T) {
	const n = 1000
	_, refFlat := runBatched(t, n, 1, 1, false)
	for i, x := range refFlat {
		if x != i {
			t.Fatalf("reference stream out of order at %d: %d", i, x)
		}
	}
	for _, workers := range []int{0, 1, 8} {
		for _, batch := range []int{1, 7, 256, n, n + 13} {
			for _, eofWithData := range []bool{false, true} {
				folds, items := runBatched(t, n, workers, batch, eofWithData)
				if !reflect.DeepEqual(items, refFlat) {
					t.Fatalf("workers=%d batch=%d eofWithData=%v: item order differs", workers, batch, eofWithData)
				}
				flat := make([]int, 0, n)
				for _, f := range folds {
					flat = append(flat, f...)
				}
				for i, r := range flat {
					if r != 3*i+1 {
						t.Fatalf("workers=%d batch=%d: result[%d] = %d, want %d", workers, batch, i, r, 3*i+1)
					}
				}
				wantBatches := (n + batch - 1) / batch
				if len(folds) != wantBatches {
					t.Fatalf("workers=%d batch=%d: %d folds, want %d", workers, batch, len(folds), wantBatches)
				}
			}
		}
	}
}

// TestBatchedEmptyStream: a stream that is exhausted immediately folds
// nothing and returns nil.
func TestBatchedEmptyStream(t *testing.T) {
	folds, _ := runBatched(t, 0, 4, 8, false)
	if len(folds) != 0 {
		t.Fatalf("empty stream produced %d folds", len(folds))
	}
}

// TestBatchedZeroNilIsError: fill returning (0, nil) must be reported,
// not spun on — an exhausted stream has to say io.EOF.
func TestBatchedZeroNilIsError(t *testing.T) {
	err := Batched(context.Background(), 1, 4,
		func(buf []int) (int, error) { return 0, nil },
		func(i, x int) int { return x },
		func(b, r []int) {})
	if err == nil || !strings.Contains(err.Error(), "io.EOF") {
		t.Fatalf("got %v, want the (0, nil) contract error", err)
	}
}

// TestBatchedFillRangeChecked: a fill that lies about n must be caught
// before the pool touches out-of-range memory.
func TestBatchedFillRangeChecked(t *testing.T) {
	for _, n := range []int{-1, 5} {
		err := Batched(context.Background(), 1, 4,
			func(buf []int) (int, error) { return n, io.EOF },
			func(i, x int) int { return x },
			func(b, r []int) {})
		if err == nil || !strings.Contains(err.Error(), "outside") {
			t.Fatalf("n=%d: got %v, want range error", n, err)
		}
	}
}

// TestBatchedFillErrorPropagates: a non-EOF fill error aborts the pump
// verbatim.
func TestBatchedFillErrorPropagates(t *testing.T) {
	boom := errors.New("disk on fire")
	err := Batched(context.Background(), 1, 4,
		func(buf []int) (int, error) { return 2, boom },
		func(i, x int) int { return x },
		func(b, r []int) { t.Fatal("fold ran on a failed fill") })
	if !errors.Is(err, boom) {
		t.Fatalf("got %v, want %v", err, boom)
	}
}

// TestBatchedPanicLowestPosition: when several items panic, the panic
// surfaced is the one at the lowest stream position — for every worker
// count and even when the panics share a batch.
func TestBatchedPanicLowestPosition(t *testing.T) {
	panicking := map[int]bool{13: true, 17: true, 57: true, 91: true}
	for _, workers := range []int{1, 8} {
		st := &intStream{n: 100}
		err := Batched(context.Background(), workers, 10,
			st.fill,
			func(i, x int) int {
				if panicking[x] {
					panic(fmt.Sprintf("item %d panicked", x))
				}
				return x
			},
			func(b, r []int) {})
		var pe *PanicError
		if !errors.As(err, &pe) || pe.Value != "item 13 panicked" {
			t.Fatalf("workers=%d: got %v, want the item-13 panic", workers, err)
		}
	}
}

// TestBatchedPanicBecomesPanicError: a panicking work function comes
// back as a *PanicError with the stack, exactly like Blocks.
func TestBatchedPanicBecomesPanicError(t *testing.T) {
	st := &intStream{n: 50}
	err := Batched(context.Background(), 4, 8,
		st.fill,
		func(i, x int) int {
			if x == 23 {
				panic("injected")
			}
			return x
		},
		func(b, r []int) {})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("got %v, want *PanicError", err)
	}
	if !strings.Contains(pe.Error(), "injected") {
		t.Fatalf("panic error %q lacks the panic value", pe.Error())
	}
}

// TestBatchedCancellation: a cancelled context stops the pump between
// batches with ctx.Err().
func TestBatchedCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	st := &intStream{n: 100}
	err := Batched(ctx, 2, 10,
		st.fill,
		func(i, x int) int { return x },
		func(b, r []int) {})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}
