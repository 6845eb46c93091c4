package obs

import (
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func parseFlags(t *testing.T, args ...string) *CLIFlags {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	c := BindCLIFlags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestCLIFlagsDisabledByDefault(t *testing.T) {
	c := parseFlags(t)
	if c.Enabled() {
		t.Fatal("no flags given but Enabled() is true")
	}
	if c.Registry() != nil {
		t.Fatal("disabled CLI flags must hand out a nil registry")
	}
	// The whole lifecycle must be a no-op.
	if err := c.Start(io.Discard); err != nil {
		t.Fatal(err)
	}
	if err := c.Finish(io.Discard); err != nil {
		t.Fatal(err)
	}
}

func TestCLIFlagsMetricsJSONFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "m.json")
	c := parseFlags(t, "-metrics", path)
	reg := c.Registry()
	if reg == nil {
		t.Fatal("-metrics should enable the registry")
	}
	reg.Counter("cli_total").Add(5)
	if err := c.Finish(io.Discard); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("snapshot is not JSON: %v\n%s", err, raw)
	}
	if doc.Counters["cli_total"] != 5 {
		t.Fatalf("snapshot = %+v", doc)
	}
}

func TestCLIFlagsMetricsPromFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "m.prom")
	c := parseFlags(t, "-metrics", path)
	c.Registry().Counter("cli_total").Add(7)
	if err := c.Finish(io.Discard); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	out := string(raw)
	if !strings.Contains(out, "# TYPE cli_total counter") || !strings.Contains(out, "cli_total 7") {
		t.Fatalf(".prom suffix did not select Prometheus exposition:\n%s", out)
	}
}

func TestCLIFlagsMetricsStdout(t *testing.T) {
	c := parseFlags(t, "-metrics", "-")
	c.Registry().Counter("cli_total").Add(9)
	var stdout bytes.Buffer
	if err := c.Finish(&stdout); err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(stdout.Bytes(), &doc); err != nil {
		t.Fatalf("'-' should write JSON to stdout: %v\n%s", err, stdout.String())
	}
}

// TestCLIFlagsPprofServer is the no-fixed-ports acceptance test: -pprof :0
// binds an ephemeral port, serves live /metrics and /debug/pprof/, and
// Finish tears it down.
func TestCLIFlagsPprofServer(t *testing.T) {
	c := parseFlags(t, "-pprof", "127.0.0.1:0", "-metrics", "-")
	c.Registry().Counter("served_total").Add(3)
	var stderr bytes.Buffer
	if err := c.Start(&stderr); err != nil {
		t.Fatal(err)
	}
	addr := c.ServerAddr()
	if addr == "" {
		t.Fatal("no bound address")
	}
	if !strings.Contains(stderr.String(), addr) {
		t.Fatalf("bound address not logged: %q vs\n%s", addr, stderr.String())
	}

	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "served_total 3") {
		t.Fatalf("live /metrics: status %d body:\n%s", resp.StatusCode, body)
	}
	resp, err = http.Get("http://" + addr + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/pprof/cmdline status %d", resp.StatusCode)
	}

	var stdout bytes.Buffer
	if err := c.Finish(&stdout); err != nil {
		t.Fatal(err)
	}
	if _, err := http.Get("http://" + addr + "/metrics"); err == nil {
		t.Fatal("server still reachable after Finish")
	}
	if !json.Valid(stdout.Bytes()) {
		t.Fatalf("-metrics - snapshot invalid after serving:\n%s", stdout.String())
	}
}
