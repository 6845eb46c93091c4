package trace

import (
	"bytes"
	"context"
	"flag"
	"io"
	"strings"
	"testing"
)

func parseCLIFlags(t *testing.T, args ...string) *CLIFlags {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	c := BindCLIFlags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestCLIFlagsTrace: -trace binds one root into the run's context, the
// stages opened from that context nest under it, and Finish prints the
// single tree once.
func TestCLIFlagsTrace(t *testing.T) {
	c := parseCLIFlags(t, "-trace")
	ctx := c.Start(context.Background(), "cli.run", 5, false)
	if FromContext(ctx) != c.Root() || c.Root() == nil {
		t.Fatal("Start did not bind the root span into the context")
	}
	FromContext(ctx).Child("cli.stage").End()
	var stderr bytes.Buffer
	if err := c.Finish(&stderr); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(stderr.String(), "\n"), "\n")
	if len(lines) != 2 ||
		!strings.HasPrefix(lines[0], "cli.run ") || !strings.HasSuffix(lines[0], "[seed=5]") ||
		!strings.HasPrefix(lines[1], "  cli.stage ") {
		t.Fatalf("-trace output is not the one root over its stage:\n%s", stderr.String())
	}
	if _, ok := c.Root().Duration(); !ok {
		t.Fatal("Finish left the root open")
	}
	stderr.Reset()
	if err := c.Finish(&stderr); err != nil || stderr.Len() != 0 {
		t.Fatalf("second Finish printed %q (err %v), want nothing", stderr.String(), err)
	}
}

// TestCLIFlagsTraceBudget: a run that opens more spans than the
// per-trace budget prints the budget's worth of tree plus one line
// counting what was dropped.
func TestCLIFlagsTraceBudget(t *testing.T) {
	c := parseCLIFlags(t, "-trace")
	ctx := c.Start(context.Background(), "cli.run", 5, false)
	for i := 0; i < 1100; i++ {
		FromContext(ctx).Child("stage").End()
	}
	var stderr bytes.Buffer
	if err := c.Finish(&stderr); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(stderr.String(), "\n"), "\n")
	if got := len(lines); got != 1024+1 {
		t.Fatalf("printed %d lines, want 1024 spans + 1 dropped line", got)
	}
	if want := "... 77 more spans dropped (per-trace budget 1024)"; lines[len(lines)-1] != want {
		t.Fatalf("last line = %q, want %q", lines[len(lines)-1], want)
	}
}

// TestCLIFlagsUntraced: without -trace the context is untouched and
// Finish prints nothing; keep opens the root for another consumer
// without printing it.
func TestCLIFlagsUntraced(t *testing.T) {
	c := parseCLIFlags(t)
	ctx := context.Background()
	if got := c.Start(ctx, "cli.run", 5, false); got != ctx || c.Root() != nil {
		t.Fatal("untraced Start changed the context or opened a root")
	}
	var stderr bytes.Buffer
	if err := c.Finish(&stderr); err != nil || stderr.Len() != 0 {
		t.Fatalf("untraced Finish printed %q (err %v)", stderr.String(), err)
	}

	kept := parseCLIFlags(t)
	if FromContext(kept.Start(ctx, "cli.run", 5, true)) == nil {
		t.Fatal("keep did not bind a root")
	}
	if err := kept.Finish(&stderr); err != nil || stderr.Len() != 0 {
		t.Fatalf("Finish without -trace printed %q (err %v)", stderr.String(), err)
	}
	if _, ok := kept.Root().Duration(); !ok {
		t.Fatal("Finish left the kept root open")
	}
}
