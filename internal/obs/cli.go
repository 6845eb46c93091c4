package obs

import (
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strings"
)

// CLIFlags bundles the two observability flags every CLI exposes:
//
//	-metrics <path|->   write a metrics snapshot at exit (.prom selects
//	                    Prometheus text, anything else JSON; '-' writes
//	                    JSON to stdout)
//	-pprof <addr>       serve /metrics, /metrics.json and /debug/pprof/
//	                    for the duration of the run (use :0 for an
//	                    ephemeral port; the bound address is logged)
//
// The batch CLIs' -trace flag lives in internal/trace (trace.CLIFlags),
// which owns the span API this package cannot import.
//
// Usage: BindCLIFlags(fs) before fs.Parse; after parsing, Registry()
// returns the run's registry (nil when no flag was given, keeping the
// disabled fast path), Start() brings up the -pprof server, and
// Finish() writes the snapshot and shuts the server down.
type CLIFlags struct {
	metricsPath string
	pprofAddr   string

	reg  *Registry
	srv  *http.Server
	addr string
	done bool
}

// BindCLIFlags registers -metrics and -pprof on fs.
func BindCLIFlags(fs *flag.FlagSet) *CLIFlags {
	c := &CLIFlags{}
	fs.StringVar(&c.metricsPath, "metrics", "",
		"write a metrics snapshot at exit: a path ending in .prom for Prometheus text exposition, any other path for JSON, '-' for JSON on stdout")
	fs.StringVar(&c.pprofAddr, "pprof", "",
		"serve GET /metrics, /metrics.json and /debug/pprof/ on this address (e.g. :6060, or :0 for an ephemeral port) during the run")
	return c
}

// Enabled reports whether any observability flag was given.
func (c *CLIFlags) Enabled() bool {
	return c != nil && (c.metricsPath != "" || c.pprofAddr != "")
}

// Registry returns the run's registry, creating it on first call.
// Returns nil when no observability flag was given, so instrumented
// code stays on the branch-only disabled path.
func (c *CLIFlags) Registry() *Registry {
	if !c.Enabled() {
		return nil
	}
	if c.reg == nil {
		c.reg = New()
	}
	return c.reg
}

// Start brings up the -pprof HTTP server if requested, logging the
// bound address (meaningful with :0) to stderr.
func (c *CLIFlags) Start(stderr io.Writer) error {
	if c == nil || c.pprofAddr == "" {
		return nil
	}
	ln, err := net.Listen("tcp", c.pprofAddr)
	if err != nil {
		return fmt.Errorf("obs: -pprof listen: %w", err)
	}
	c.addr = ln.Addr().String()
	c.srv = &http.Server{Handler: c.Registry().HTTPHandler()}
	go func() { _ = c.srv.Serve(ln) }()
	fmt.Fprintf(stderr, "obs: serving /metrics and /debug/pprof/ on http://%s\n", c.addr)
	return nil
}

// ServerAddr returns the bound -pprof address ("" when not serving).
func (c *CLIFlags) ServerAddr() string {
	if c == nil {
		return ""
	}
	return c.addr
}

// Finish writes the -metrics snapshot, then shuts the -pprof server
// down. stdout receives '-' snapshots.
//
// Finish is idempotent: the first call does the work, later calls are
// no-ops. CLIs exploit this by deferring Finish right after Start —
// when a run is cancelled mid-pipeline the deferred call still writes
// a partial snapshot (the counters flushed so far), while the normal
// exit path's explicit Finish keeps its error reporting.
func (c *CLIFlags) Finish(stdout io.Writer) error {
	if c == nil || c.done {
		return nil
	}
	c.done = true
	if c.srv != nil {
		_ = c.srv.Close()
		c.srv = nil
	}
	reg := c.Registry()
	if c.metricsPath == "" {
		return nil
	}
	if c.metricsPath == "-" {
		return reg.WriteJSON(stdout)
	}
	f, err := os.Create(c.metricsPath)
	if err != nil {
		return err
	}
	if strings.HasSuffix(c.metricsPath, ".prom") {
		err = reg.WritePrometheus(f)
	} else {
		err = reg.WriteJSON(f)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
