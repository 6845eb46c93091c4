// Command perfbench is the repository benchmark. One run builds a
// default-scale snapshot artifact from a seeded world (astopo → p2p →
// bgp → pipeline → snapshot), serves it through internal/serve on a
// loopback listener, and drives it with internal/client at a fixed
// open-loop rate, then at full speed to measure capacity. It prints every
// metric by name with its unit, checks the served answers against answers
// computed offline, and ends with one JSON result line.
//
// Run it from the repository root through the wrapper, which builds it:
//
//	bash perfbench/run.sh --workload serve_point --seed 1 --seconds 12 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 is a separate run
// that records internal/trace spans around every layer call and reports
// the per-layer metrics. README.md lists the workloads and metrics.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// defaultSeed is the seed the benchmark is tuned on; heldOutSeed is kept
// out of tuning so a claimed gain can be confirmed on a seed nobody
// looked at while writing the change.
const (
	defaultSeed = 1
	heldOutSeed = 1009
)

// worldSeed fixes the synthetic world every run builds: the default-scale
// world results/ is generated from. The workload seed drives the crawl,
// the request schedule and every draw. A world drawn per seed changes the
// ASes' sizes, and with them render costs and capacity, by up to 2×
// between seeds: wider than any bound the benchmark could hold.
const worldSeed = 42

// workload is one named traffic mix against the default-scale artifact.
type workload struct {
	name string
	why  string
	// rate is the fixed open-loop request rate in requests per second.
	rate float64
	// warm turns on the server's background cache warmer; the measured
	// phase then starts only after the warm pass has finished.
	warm bool
	plan planFunc
}

var workloads = map[string]*workload{
	"serve_point": {
		name: "serve_point",
		why:  "per-AS lookups and records: middleware, routing, encoding/json and the client; KDE, cache and warmer idle",
		rate: 6000,
		plan: pointPlan,
	},
	"serve_footprint": {
		name: "serve_footprint",
		why:  "user-weighted footprints over a working set larger than the cache: cache, coalescing, warmer and cold KDE renders",
		rate: 80,
		warm: true,
		plan: footprintPlan,
	},
}

type options struct {
	workload *workload
	seed     uint64
	seconds  float64
	traced   bool
	small    bool // astopo.SmallConfig world instead of the default scale
	workdir  string
	root     string // checkout root, for the source digest
}

// metric is one named value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run(context.Background(), os.Args[1:], os.Stdout, os.Stderr))
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fset := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fset.SetOutput(stderr)
	name := fset.String("workload", "", "workload to run: serve_point or serve_footprint")
	seed := fset.Uint64("seed", defaultSeed, fmt.Sprintf("workload seed: crawl, request schedule and draws (default %d; %d is held out for claims)", defaultSeed, heldOutSeed))
	seconds := fset.Float64("seconds", 30, "measured time: 40% open loop at the fixed rate, 60% closed loop for capacity")
	traceFlag := fset.Int("trace", 0, "1 = traced run reporting per-layer metrics; 0 = end-to-end metrics")
	small := fset.Bool("small", false, "build the test-scale world (astopo.SmallConfig) instead of the default scale")
	workdir := fset.String("workdir", ".bench_build", "directory for the artifact written during the run")
	if err := fset.Parse(args); err != nil {
		return 2
	}
	wl, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want serve_point or serve_footprint)\n", *name)
		return 2
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintf(stderr, "perfbench: --trace must be 0 or 1\n")
		return 2
	}
	if !(*seconds > 0) || *seconds > 600 {
		fmt.Fprintf(stderr, "perfbench: --seconds must be in (0, 600]\n")
		return 2
	}
	root, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	o := options{
		workload: wl,
		seed:     *seed,
		seconds:  *seconds,
		traced:   *traceFlag == 1,
		small:    *small,
		workdir:  *workdir,
		root:     root,
	}
	res, err := runWorkload(ctx, o, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: encoding result: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		fmt.Fprintf(stderr, "perfbench: output checks failed\n")
		return 1
	}
	return 0
}

// report prints the human-readable part of the output: run metadata,
// per-phase request counts and every metric by name with its unit.
type report struct {
	w       io.Writer
	metrics map[string]metric
}

func newReport(w io.Writer) *report {
	return &report{w: w, metrics: map[string]metric{}}
}

func (r *report) printf(format string, args ...any) {
	fmt.Fprintf(r.w, format+"\n", args...)
}

// note prints a metric without putting it on the result line: values that
// exist on one workload only, or that are zero on a healthy run.
func (r *report) note(name string, v float64, unit string) {
	r.printf("metric %-34s %14.6g %s (report only)", name, v, unit)
}

// set records a result-line metric and prints it.
func (r *report) set(name string, v float64, unit string) {
	r.metrics[name] = metric{Value: v, Unit: unit}
	r.printf("metric %-34s %14.6g %s", name, v, unit)
}

// check verifies that the result line carries exactly the named metrics,
// each finite.
func (r *report) check(names []string) error {
	var missing []string
	for _, n := range names {
		m, ok := r.metrics[n]
		if !ok {
			missing = append(missing, n)
			continue
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is not finite (%v)", n, m.Value)
		}
	}
	if len(missing) > 0 {
		return fmt.Errorf("metrics not measured: %s", strings.Join(missing, ", "))
	}
	if len(r.metrics) != len(names) {
		return fmt.Errorf("result carries %d metrics, want %d", len(r.metrics), len(names))
	}
	return nil
}

// printMeta records what a perf claim needs next to its numbers.
func printMeta(r *report, o options) {
	r.printf("run workload=%s seed=%d seconds=%g trace=%t world=%s(seed %d)", o.workload.name, o.seed, o.seconds, o.traced, scaleName(o.small), worldSeed)
	r.printf("run gomaxprocs=%d nproc=%d go=%s os=%s/%s", runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version(), runtime.GOOS, runtime.GOARCH)
	r.printf("run commit=%s source=%s", gitHead(o.root), sourceDigest(o.root))
	r.printf("run rate=%g req/s senders=%d connections<=%d why=%q", o.workload.rate, senders(), senders(), o.workload.why)
}

func scaleName(small bool) string {
	if small {
		return "astopo.SmallConfig"
	}
	return "astopo.DefaultConfig"
}

// senders is the number of sender goroutines and connections: one per
// CPU, so the generator never has more requests in flight than the host
// has cores.
func senders() int { return runtime.NumCPU() }

// gitHead returns the checked-out commit when root is a git work tree,
// read straight from .git without running git.
func gitHead(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", filepath.FromSlash(ref))); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
			return sha
		}
	}
	return "unknown"
}

// sourceDigest hashes every Go source and module file under root, so runs
// of the same code can be matched even in a checkout that is not a git
// repository.
func sourceDigest(root string) string {
	var files []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") || d.Name() == "go.mod" {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		return "unknown"
	}
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return "unknown"
		}
		rel, _ := filepath.Rel(root, f)
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(rel), len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// errCheck marks a failed check on the build's output: the run stops and
// exits 1 without a result line.
var errCheck = errors.New("output check failed")

// secs converts a duration to float seconds.
func secs(d time.Duration) float64 { return d.Seconds() }

// mib converts bytes to MiB.
func mib(b float64) float64 { return b / (1 << 20) }
