// Command eyeballexp regenerates every table and figure of the paper's
// evaluation over a synthetic world and prints them; with -out it also
// writes per-experiment text and CSV files.
//
// Usage:
//
//	eyeballexp [-seed N] [-small|-paper|-world file] [-out dir] [-exp name]
//	           [-batch N] [-faults spec] [-fault-seed N]
//	           [-metrics out.json|out.prom|-] [-trace] [-pprof :6060]
//
// -exp all (the default) runs every experiment, in this order: table1,
// figure1, figure2, section5, dimes and casestudy reproduce the paper's
// evaluation; multiscale, bias, fusion, predict, peergeo, density,
// services, crawlquality, stability and degradation go beyond it. Any
// other -exp runs that one experiment. An unknown name is refused
// before the environment is built.
//
// SIGINT/SIGTERM cancel the run: every experiment's worker pools stop
// within one work unit, the process exits non-zero, and -metrics still
// writes a partial snapshot.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"path/filepath"
	"slices"
	"strings"
	"syscall"

	"eyeballas"
	"eyeballas/internal/faults"
	"eyeballas/internal/obs"
	"eyeballas/internal/parallel"
	"eyeballas/internal/trace"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("eyeballexp: ")
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout, os.Stderr); err != nil {
		log.Fatal(err)
	}
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("eyeballexp", flag.ContinueOnError)
	fs.SetOutput(stdout)
	seed := fs.Uint64("seed", 42, "world and crawl seed")
	small := fs.Bool("small", false, "use the test-scale world")
	paper := fs.Bool("paper", false, "use the paper-scale world (1233 eyeball ASes; takes minutes)")
	worldPath := fs.String("world", "", "load the world from a snapshot written by eyeballgen -save")
	outDir := fs.String("out", "", "directory to write per-experiment artifacts into")
	expSel := fs.String("exp", "all", "experiment to run: all|"+experimentNames())
	batch := fs.Int("batch", 0, "peers per streaming ingestion batch for the pipeline build (0 = default; output is identical for every setting)")
	faultFlags := faults.BindCLIFlags(fs)
	obsFlags := obs.BindCLIFlags(fs)
	traceFlags := trace.BindCLIFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *expSel != "all" && !slices.ContainsFunc(experiments, func(e experiment) bool { return e.name == *expSel }) {
		return fmt.Errorf("unknown experiment %q (want all|%s)", *expSel, experimentNames())
	}
	plan, err := faultFlags.Plan()
	if err != nil {
		return err
	}
	reg := obsFlags.Registry()
	if reg != nil {
		parallel.SetMetrics(parallel.MetricsFrom(reg))
		defer parallel.SetMetrics(nil)
	}
	if err := obsFlags.Start(stderr); err != nil {
		return err
	}
	defer obsFlags.Finish(stdout)
	ctx = traceFlags.Start(ctx, "eyeballexp.run", *seed, false)
	defer traceFlags.Finish(stderr)

	var env *eyeball.Experiments
	switch {
	case *worldPath != "":
		f, err2 := os.Open(*worldPath)
		if err2 != nil {
			return err2
		}
		w, err2 := eyeball.LoadWorld(f)
		f.Close()
		if err2 != nil {
			return err2
		}
		cfg := eyeball.DefaultPipelineConfig()
		cfg.Obs = reg
		cfg.Faults = plan
		cfg.BatchSize = *batch
		env, err = eyeball.NewExperimentsWithWorldCtx(ctx, w, *seed, cfg)
	case *paper:
		env, err = eyeball.NewPaperScaleExperimentsCtx(ctx, *seed, reg, plan, eyeball.WithBatchSize(*batch))
	case *small:
		env, err = eyeball.NewSmallExperimentsCtx(ctx, *seed, reg, plan, eyeball.WithBatchSize(*batch))
	default:
		env, err = eyeball.NewExperimentsCtx(ctx, *seed, reg, plan, eyeball.WithBatchSize(*batch))
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "environment: seed=%d, %d eligible ASes, %d usable peers, %d crawled peers\n\n",
		*seed, len(env.Dataset.Order), env.Dataset.TotalPeers, env.Dataset.CrawledPeers)

	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			return err
		}
	}
	sess := &session{env: env}
	for _, e := range experiments {
		if *expSel != "all" && *expSel != e.name {
			continue
		}
		text, csv, err := e.run(sess)
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, text)
		if *outDir == "" {
			continue
		}
		if err := os.WriteFile(filepath.Join(*outDir, e.name+".txt"), []byte(text), 0o644); err != nil {
			return err
		}
		if csv != "" {
			if err := os.WriteFile(filepath.Join(*outDir, e.name+".csv"), []byte(csv), 0o644); err != nil {
				return err
			}
		}
	}
	if *outDir != "" {
		fmt.Fprintf(stdout, "artifacts written to %s\n", *outDir)
	}
	if err := traceFlags.Finish(stderr); err != nil {
		return err
	}
	return obsFlags.Finish(stdout)
}

// experiment is one -exp selection: run returns its text and, when it
// has one, its CSV.
type experiment struct {
	name string
	run  func(s *session) (text, csv string, err error)
}

// experiments lists every -exp name in the order -exp all runs them:
// the paper's evaluation, then the extensions beyond it.
var experiments = []experiment{
	{"table1", func(s *session) (string, string, error) { return withCSV(eyeball.RunTable1(s.env), nil) }},
	{"figure1", func(s *session) (string, string, error) { return plain(eyeball.RunFigure1(s.env, nil)) }},
	{"figure2", func(s *session) (string, string, error) { return withCSV(s.figure2()) }},
	{"section5", func(s *session) (string, string, error) {
		f2, err := s.figure2()
		if err != nil {
			return "", "", err
		}
		return plain(eyeball.RunSection5(f2), nil)
	}},
	{"dimes", func(s *session) (string, string, error) { return plain(eyeball.RunDIMES(s.env)) }},
	{"casestudy", func(s *session) (string, string, error) { return plain(eyeball.RunCaseStudy(s.env)) }},
	{"multiscale", func(s *session) (string, string, error) { return plain(eyeball.RunMultiScale(s.env)) }},
	{"bias", func(s *session) (string, string, error) { return plain(eyeball.RunBias(s.env)) }},
	{"fusion", func(s *session) (string, string, error) { return plain(eyeball.RunFusion(s.env)) }},
	{"predict", func(s *session) (string, string, error) { return plain(eyeball.RunPredict(s.env)) }},
	{"peergeo", func(s *session) (string, string, error) { return plain(eyeball.RunPeerGeo(s.env)) }},
	{"density", func(s *session) (string, string, error) { return plain(eyeball.RunDensity(s.env)) }},
	{"services", func(s *session) (string, string, error) { return plain(eyeball.RunServices(s.env)) }},
	{"crawlquality", func(s *session) (string, string, error) { return plain(eyeball.RunCrawlQuality(s.env, nil)) }},
	{"stability", func(s *session) (string, string, error) { return plain(eyeball.RunStability(s.env, 3)) }},
	{"degradation", func(s *session) (string, string, error) { return withCSV(eyeball.RunDegradation(s.env, nil)) }},
}

// experimentNames joins the experiment names with "|", in run order.
func experimentNames() string {
	names := make([]string, len(experiments))
	for i, e := range experiments {
		names[i] = e.name
	}
	return strings.Join(names, "|")
}

// session is one run's shared state: the environment, and Figure 2,
// which figure2 and section5 both report and which is computed once.
type session struct {
	env *eyeball.Experiments
	f2  *eyeball.Figure2Result
}

func (s *session) figure2() (*eyeball.Figure2Result, error) {
	var err error
	if s.f2 == nil {
		s.f2, err = eyeball.RunFigure2(s.env, nil)
	}
	return s.f2, err
}

// plain and withCSV adapt an experiment's result to its output: the
// rendered text, and for withCSV the CSV too.
func plain[R interface{ Render() string }](r R, err error) (string, string, error) {
	if err != nil {
		return "", "", err
	}
	return r.Render(), "", nil
}

func withCSV[R interface {
	Render() string
	CSV() string
}](r R, err error) (string, string, error) {
	if err != nil {
		return "", "", err
	}
	return r.Render(), r.CSV(), nil
}
