package parallel

import (
	"context"
	"errors"
	"fmt"
	"io"
)

// DefaultBatchSize is the batch size Batched uses when the caller passes
// batch <= 0. It is large enough that per-batch pool overhead is noise,
// and small enough that the two reusable batch buffers stay a fraction
// of any realistic kept-result working set.
const DefaultBatchSize = 8192

// Batched pumps a stream through the pool in fixed-size batches: fill
// produces up to len(buf) items, work maps item i of the current batch
// to an index-addressed result, and fold consumes each completed batch
// serially, in arrival order, on the calling goroutine.
//
// The two batch buffers are allocated once and reused, so the pump's
// own footprint is O(batch) regardless of stream length. Determinism
// matches the rest of the package: within a batch, work fans out over
// Blocks (fixed decomposition, lowest-index-wins panics) and fold sees
// results in stream order, so the sequence of fold calls — and anything
// accumulated across them — is byte-identical for every worker count.
// Because batches are consumed strictly in order, the panic that
// surfaces is the one at the lowest stream position for every batch
// size too.
//
// fill follows the io.Reader convention: it returns the number of items
// written into buf and io.EOF (possibly alongside n > 0) at end of
// stream. Returning (0, nil) is reported as an error rather than
// spinning — a stream with nothing to deliver must say io.EOF. Any
// other error from fill, or a panic in work, aborts the pump;
// cancellation is observed between batches and at the pool's block
// boundaries.
func Batched[T, R any](ctx context.Context, workers, batch int, fill func(buf []T) (int, error), work func(i int, item T) R, fold func(batch []T, results []R)) error {
	if batch <= 0 {
		batch = DefaultBatchSize
	}
	if ctx == nil {
		ctx = context.Background()
	}
	buf := make([]T, batch)
	results := make([]R, batch)
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		n, ferr := fill(buf)
		if n < 0 || n > batch {
			return fmt.Errorf("parallel: Batched fill returned n=%d outside [0,%d]", n, batch)
		}
		if ferr != nil && ferr != io.EOF {
			return ferr
		}
		if n == 0 && ferr == nil {
			return errors.New("parallel: Batched fill returned (0, nil); an exhausted stream must return io.EOF")
		}
		if n > 0 {
			items, res := buf[:n], results[:n]
			if err := Blocks(ctx, workers, n, 0, func(lo, hi int) error {
				for i := lo; i < hi; i++ {
					res[i] = work(i, items[i])
				}
				return nil
			}); err != nil {
				return err
			}
			fold(items, res)
		}
		if ferr == io.EOF {
			return nil
		}
	}
}
