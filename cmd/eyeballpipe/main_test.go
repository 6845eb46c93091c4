package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"eyeballas"
)

func TestRunPipeline(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-small", "-seed", "5"}, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"target dataset:", "drops:", "Table 1", "Country"} {
		if !strings.Contains(s, want) {
			t.Errorf("output lacks %q:\n%s", want, s)
		}
	}
}

func TestRunMinPeersOverride(t *testing.T) {
	var loose, strict bytes.Buffer
	if err := run(context.Background(), []string{"-small", "-seed", "5", "-minpeers", "50"}, &loose, io.Discard); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), []string{"-small", "-seed", "5", "-minpeers", "2000"}, &strict, io.Discard); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(strict.String(), "below 2000 peers") {
		t.Error("override not reflected in output")
	}
	// A higher floor admits fewer ASes.
	if countASes(t, loose.String()) <= countASes(t, strict.String()) {
		t.Errorf("floor 50 admitted %d ASes, floor 2000 admitted %d",
			countASes(t, loose.String()), countASes(t, strict.String()))
	}
}

func countASes(t *testing.T, out string) int {
	t.Helper()
	idx := strings.Index(out, "target dataset: ")
	if idx < 0 {
		t.Fatalf("no dataset line in %.80q", out)
	}
	var n int
	if _, err := fmt.Sscanf(out[idx:], "target dataset: %d", &n); err != nil {
		t.Fatalf("cannot parse AS count: %v", err)
	}
	return n
}

func TestRunDump(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ds.csv")
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-small", "-seed", "5", "-dump", path}, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(data, []byte("asn,name,kind,level")) {
		t.Errorf("CSV header wrong: %.60s", data)
	}
	if lines := bytes.Count(data, []byte("\n")); lines < 10 {
		t.Errorf("CSV too short: %d lines", lines)
	}
}

func TestRunFromSnapshot(t *testing.T) {
	dir := t.TempDir()
	snap := filepath.Join(dir, "world.snap")
	// Generate and save a world via the public API, then drive the
	// pipeline off the snapshot.
	w, err := eyeball.GenerateSmallWorld(5)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Create(snap)
	if err != nil {
		t.Fatal(err)
	}
	if err := eyeball.SaveWorld(f, w); err != nil {
		t.Fatal(err)
	}
	f.Close()

	var fromSnap, direct bytes.Buffer
	if err := run(context.Background(), []string{"-world", snap, "-seed", "5"}, &fromSnap, io.Discard); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), []string{"-small", "-seed", "5"}, &direct, io.Discard); err != nil {
		t.Fatal(err)
	}
	if fromSnap.String() != direct.String() {
		t.Error("pipeline over a snapshot differs from pipeline over the generated world")
	}
}

// TestRunStreamIdenticalToBatch: the streamed build must produce
// byte-identical stdout for every -batch and -workers setting, with and
// without fault injection — the CLI-level face of the bit-identity
// guarantee the differential harness pins at the package level.
func TestRunStreamIdenticalToBatch(t *testing.T) {
	cases := []struct {
		name   string
		shared []string // args both runs get (fault plans must match)
		extra  []string // args for the second run only
	}{
		{"default batch", nil, []string{"-workers", "1"}}, // one worker against all CPUs
		{"batch 7", nil, []string{"-batch", "7"}},
		{"batch larger than crawl", nil, []string{"-batch", "100000"}},
		{"with faults", []string{"-faults", "geo-miss=0.05,crawl-dup=0.05", "-fault-seed", "7"}, []string{"-batch", "7"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			base := append([]string{"-small", "-seed", "5"}, tc.shared...)
			var ref, got bytes.Buffer
			if err := run(context.Background(), base, &ref, io.Discard); err != nil {
				t.Fatal(err)
			}
			if err := run(context.Background(), append(append([]string{}, base...), tc.extra...), &got, io.Discard); err != nil {
				t.Fatal(err)
			}
			if ref.String() != got.String() {
				t.Errorf("%v output differs from the default:\n--- default ---\n%s\n--- %v ---\n%s", tc.extra, ref.String(), tc.extra, got.String())
			}
		})
	}
}

// TestRunSampleCap: -as-sample-cap must succeed and keep the funnel
// conserved; the dataset head line is unchanged (the cap redistributes
// retention, not eligibility, when generous).
func TestRunSampleCap(t *testing.T) {
	var capped bytes.Buffer
	if err := run(context.Background(), []string{"-small", "-seed", "5", "-as-sample-cap", "100000"}, &capped, io.Discard); err != nil {
		t.Fatal(err)
	}
	var ref bytes.Buffer
	if err := run(context.Background(), []string{"-small", "-seed", "5"}, &ref, io.Discard); err != nil {
		t.Fatal(err)
	}
	// A cap far above any AS's peer count is exactly the uncapped build.
	if capped.String() != ref.String() {
		t.Error("generous -as-sample-cap changed the output")
	}
}

// TestRunBadInputs drives every user-error path through run(): unknown
// flags, malformed fault specs, unreadable or corrupt input files. Each
// must surface as a non-nil error, never a panic or a zero exit.
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
		{"faults spec without rate", []string{"-small", "-faults", "nonsense"}},
		{"faults unknown point", []string{"-small", "-faults", "bogus-point=0.1"}},
		{"faults rate out of range", []string{"-small", "-faults", "geo-miss=2"}},
		{"faults rate not a number", []string{"-small", "-faults", "geo-miss=lots"}},
		{"missing world file", []string{"-world", filepath.Join(dir, "absent.snap")}},
		{"corrupt world file", []string{"-world", corrupt}},
		{"unwritable dump path", []string{"-small", "-seed", "5", "-dump", filepath.Join(dir, "no", "such", "dir", "x.csv")}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := run(context.Background(), tc.args, io.Discard, io.Discard); err == nil {
				t.Errorf("run(%q) accepted bad input", tc.args)
			}
		})
	}
}

// TestRunFaultsDeterministic: the same -faults spec and -fault-seed must
// reproduce byte-identical output; a different seed must not.
func TestRunFaultsDeterministic(t *testing.T) {
	args := []string{"-small", "-seed", "5", "-faults", "geo-miss=0.1,origin-miss=0.02", "-fault-seed", "7"}
	var a, b bytes.Buffer
	if err := run(context.Background(), args, &a, io.Discard); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), args, &b, io.Discard); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Error("same fault plan produced different output")
	}
	var c bytes.Buffer
	other := append(args[:len(args)-1:len(args)-1], "8")
	if err := run(context.Background(), other, &c, io.Discard); err != nil {
		t.Fatal(err)
	}
	if a.String() == c.String() {
		t.Error("different fault seed produced identical output")
	}
}

// TestRunBudgetExceeded: a fault rate over the configured budget must
// fail the build with a budget error, not silently degrade.
func TestRunBudgetExceeded(t *testing.T) {
	err := run(context.Background(),
		[]string{"-small", "-seed", "5", "-faults", "geo-miss=0.5", "-max-geo-miss", "0.2"},
		io.Discard, io.Discard)
	if err == nil {
		t.Fatal("budget-exceeding run succeeded")
	}
	if !strings.Contains(err.Error(), "error budget exceeded") {
		t.Errorf("error %v does not mention the budget", err)
	}
}

// TestRunSingleDBDegraded: -single-db must succeed and announce the
// degraded dataset on stderr.
func TestRunSingleDBDegraded(t *testing.T) {
	var out, errBuf bytes.Buffer
	if err := run(context.Background(), []string{"-small", "-seed", "5", "-single-db"}, &out, &errBuf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(errBuf.String(), "degraded:") {
		t.Errorf("no degraded notice on stderr:\n%s", errBuf.String())
	}
	if !strings.Contains(out.String(), "target dataset:") {
		t.Error("single-db run produced no dataset")
	}
}

// TestRunCancelledContext: a pre-cancelled context must abort the run
// with ctx.Err() — the in-process equivalent of SIGINT before work
// starts.
func TestRunCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := run(ctx, []string{"-small", "-seed", "5"}, io.Discard, io.Discard)
	if !errors.Is(err, context.Canceled) {
		t.Errorf("got %v, want context.Canceled", err)
	}
}

// TestRunCancelWritesPartialMetrics: cancellation mid-run must still
// leave a -metrics snapshot on disk (the deferred idempotent Finish).
func TestRunCancelWritesPartialMetrics(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "partial.json")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := run(ctx, []string{"-small", "-seed", "5", "-metrics", path}, io.Discard, io.Discard); err == nil {
		t.Fatal("cancelled run succeeded")
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("no partial metrics snapshot: %v", err)
	}
	if !bytes.Contains(data, []byte("{")) {
		t.Errorf("snapshot not JSON: %.60s", data)
	}
}
