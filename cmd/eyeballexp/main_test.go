package main

import (
	"bytes"
	"context"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunSingleExperiment(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-small", "-seed", "5", "-exp", "table1"}, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "environment:") || !strings.Contains(s, "Table 1") {
		t.Errorf("output malformed:\n%s", s)
	}
	if strings.Contains(s, "case study") {
		t.Error("selection leaked other experiments")
	}
}

func TestRunAllWritesArtifacts(t *testing.T) {
	dir := t.TempDir()
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-small", "-seed", "5", "-out", dir}, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		"table1.txt", "table1.csv", "figure1.txt", "figure2.txt", "figure2.csv",
		"peergeo.txt", "stability.txt", "density.txt", "services.txt", "crawlquality.txt",
		"section5.txt", "dimes.txt", "casestudy.txt",
		"multiscale.txt", "bias.txt", "fusion.txt", "predict.txt",
		"degradation.txt", "degradation.csv",
	} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Errorf("artifact %s missing: %v", name, err)
		}
	}
	if !strings.Contains(out.String(), "artifacts written") {
		t.Error("no confirmation line")
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-small", "-seed", "5", "-exp", "nonsense"}, &out, io.Discard); err == nil {
		t.Error("unknown experiment accepted")
	}
}

// TestRunBadInputs drives the user-error paths: unknown flags and
// experiments, bad fault specs, missing or corrupt world snapshots.
func TestRunBadInputs(t *testing.T) {
	dir := t.TempDir()
	corrupt := filepath.Join(dir, "corrupt.snap")
	if err := os.WriteFile(corrupt, []byte("not a world snapshot\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		args []string
	}{
		{"unknown flag", []string{"-definitely-not-a-flag"}},
		{"unknown experiment", []string{"-small", "-seed", "5", "-exp", "nonsense"}},
		{"faults spec without rate", []string{"-small", "-faults", "nonsense"}},
		{"faults unknown point", []string{"-small", "-faults", "bogus=0.1"}},
		{"faults rate out of range", []string{"-small", "-faults", "crawl-loss=1.5"}},
		{"missing world file", []string{"-world", filepath.Join(dir, "absent.snap")}},
		{"corrupt world file", []string{"-world", corrupt}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := run(context.Background(), tc.args, io.Discard, io.Discard); err == nil {
				t.Errorf("run(%q) accepted bad input", tc.args)
			}
		})
	}
}

// TestRunCancelledContext: a pre-cancelled context aborts environment
// generation with ctx.Err().
func TestRunCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := run(ctx, []string{"-small", "-seed", "5", "-exp", "table1"}, io.Discard, io.Discard); !errors.Is(err, context.Canceled) {
		t.Errorf("got %v, want context.Canceled", err)
	}
}

// TestTraceKeepsEveryRebuild: -trace shows every pipeline rebuild the
// sweeps run as a top-level span (3 stability months, 4 crawl scales
// and 6 degradation rates) and drops no span. The per-AS estimates run
// untraced, so they cannot spend the run's span budget.
func TestTraceKeepsEveryRebuild(t *testing.T) {
	var stderr bytes.Buffer
	if err := run(context.Background(), []string{"-small", "-seed", "42", "-trace"}, io.Discard, &stderr); err != nil {
		t.Fatal(err)
	}
	rebuilds := 0
	for _, line := range strings.Split(stderr.String(), "\n") {
		if strings.HasPrefix(line, "  pipeline.run ") {
			rebuilds++
		}
		if strings.Contains(line, "more spans dropped") {
			t.Errorf("trace dropped spans: %s", strings.TrimSpace(line))
		}
	}
	if rebuilds != 13 {
		t.Errorf("trace shows %d top-level pipeline.run spans, want 13", rebuilds)
	}
}
