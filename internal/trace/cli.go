package trace

import (
	"context"
	"flag"
	"fmt"
	"io"
)

// CLIFlags is the batch CLIs' -trace flag. A traced run gets exactly one
// root span, bound into the run's context, so every instrumented stage
// (experiment environment, crawl, BGP origin table, pipeline build, KDE)
// nests under it as one tree. At exit the tree is printed through
// WriteText, the same text encoder the flight recorder's traces use.
//
// Usage: BindCLIFlags(fs) before fs.Parse; after parsing, Start opens
// the root and returns the context to run under, and Finish ends and
// prints it. An untraced run keeps its context unchanged, so every stage
// stays on the branch-only nil-span path.
type CLIFlags struct {
	print bool
	root  *Span
	done  bool
}

// BindCLIFlags registers -trace on fs.
func BindCLIFlags(fs *flag.FlagSet) *CLIFlags {
	c := &CLIFlags{}
	fs.BoolVar(&c.print, "trace", false,
		"print the run's span tree (per-stage wall-clock timings) to stderr at exit")
	return c
}

// Start opens the run's root span, named name, with trace IDs derived
// from seed (recorded as the root's "seed" attribute), and returns ctx
// carrying it. Without -trace it returns ctx unchanged unless keep is
// set: keep is for callers that export the root another way
// (eyeballpipe -trace-out), so both renderings share one tree.
func (c *CLIFlags) Start(ctx context.Context, name string, seed uint64, keep bool) context.Context {
	if !c.print && !keep {
		return ctx
	}
	c.root = New(Options{Seed: seed}).Start(name)
	c.root.SetInt("seed", int64(seed))
	return NewContext(ctx, c.root)
}

// Root returns the run's root span (nil when the run is untraced).
func (c *CLIFlags) Root() *Span { return c.root }

// Finish ends the root span and, under -trace, writes its tree to w,
// followed by one line counting the spans the per-trace MaxSpans budget
// dropped, if any. Finish is idempotent, so CLIs defer it for error
// paths and call it explicitly on the normal one.
func (c *CLIFlags) Finish(w io.Writer) error {
	if c.root == nil || c.done {
		return nil
	}
	c.done = true
	c.root.End()
	if !c.print {
		return nil
	}
	if err := WriteText(w, c.root); err != nil {
		return err
	}
	if n := c.root.DroppedSpans(); n > 0 {
		_, err := fmt.Fprintf(w, "... %d more spans dropped (per-trace budget %d)\n", n, c.root.tracer.maxSpans)
		return err
	}
	return nil
}
