// Command eyeballexp regenerates every table and figure of the paper's
// evaluation over a synthetic world and prints them; with -out it also
// writes per-experiment text and CSV files.
//
// Usage:
//
//	eyeballexp [-seed N] [-small] [-out dir] [-exp all|table1|figure1|figure2|section5|dimes|casestudy]
//	           [-faults spec] [-fault-seed N]
//	           [-metrics out.json|out.prom|-] [-trace] [-pprof :6060]
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
	expSel := fs.String("exp", "all", "experiment to run: all|table1|figure1|figure2|section5|dimes|casestudy|multiscale|bias|fusion|predict|degradation")
	batch := fs.Int("batch", 0, "peers per streaming ingestion batch for the pipeline build (0 = default; output is identical for every setting)")
	faultFlags := faults.BindCLIFlags(fs)
	obsFlags := obs.BindCLIFlags(fs)
	traceFlags := trace.BindCLIFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
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

	want := func(name string) bool { return *expSel == "all" || *expSel == name }
	var emitErr error
	emit := func(name, text, csv string) {
		fmt.Fprintln(stdout, text)
		if *outDir == "" {
			return
		}
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			emitErr = err
			return
		}
		if err := os.WriteFile(filepath.Join(*outDir, name+".txt"), []byte(text), 0o644); err != nil {
			emitErr = err
			return
		}
		if csv != "" {
			if err := os.WriteFile(filepath.Join(*outDir, name+".csv"), []byte(csv), 0o644); err != nil {
				emitErr = err
			}
		}
	}

	ran := false
	if want("table1") {
		t := eyeball.RunTable1(env)
		emit("table1", t.Render(), t.CSV())
		ran = true
	}
	if want("figure1") {
		f, err := eyeball.RunFigure1(env, nil)
		if err != nil {
			return err
		}
		emit("figure1", f.Render(), "")
		ran = true
	}
	var f2 *eyeball.Figure2Result
	if want("figure2") || want("section5") {
		f2, err = eyeball.RunFigure2(env, nil)
		if err != nil {
			return err
		}
	}
	if want("figure2") {
		emit("figure2", f2.Render(), f2.CSV())
		ran = true
	}
	if want("section5") {
		emit("section5", eyeball.RunSection5(f2).Render(), "")
		ran = true
	}
	if want("dimes") {
		d, err := eyeball.RunDIMES(env)
		if err != nil {
			return err
		}
		emit("dimes", d.Render(), "")
		ran = true
	}
	if want("casestudy") {
		cs, err := eyeball.RunCaseStudy(env)
		if err != nil {
			return err
		}
		emit("casestudy", cs.Render(), "")
		ran = true
	}
	// Extensions beyond the paper (future-work items implemented).
	if want("multiscale") {
		m, err := eyeball.RunMultiScale(env)
		if err != nil {
			return err
		}
		emit("multiscale", m.Render(), "")
		ran = true
	}
	if want("bias") {
		bi, err := eyeball.RunBias(env)
		if err != nil {
			return err
		}
		emit("bias", bi.Render(), "")
		ran = true
	}
	if want("fusion") {
		fu, err := eyeball.RunFusion(env)
		if err != nil {
			return err
		}
		emit("fusion", fu.Render(), "")
		ran = true
	}
	if want("predict") {
		pr, err := eyeball.RunPredict(env)
		if err != nil {
			return err
		}
		emit("predict", pr.Render(), "")
		ran = true
	}
	if want("peergeo") {
		pg, err := eyeball.RunPeerGeo(env)
		if err != nil {
			return err
		}
		emit("peergeo", pg.Render(), "")
		ran = true
	}
	if want("density") {
		de, err := eyeball.RunDensity(env)
		if err != nil {
			return err
		}
		emit("density", de.Render(), "")
		ran = true
	}
	if want("services") {
		sv, err := eyeball.RunServices(env)
		if err != nil {
			return err
		}
		emit("services", sv.Render(), "")
		ran = true
	}
	if want("crawlquality") {
		cq, err := eyeball.RunCrawlQuality(env, nil)
		if err != nil {
			return err
		}
		emit("crawlquality", cq.Render(), "")
		ran = true
	}
	if want("stability") {
		st, err := eyeball.RunStability(env, 3)
		if err != nil {
			return err
		}
		emit("stability", st.Render(), "")
		ran = true
	}
	if want("degradation") {
		dg, err := eyeball.RunDegradation(env, nil)
		if err != nil {
			return err
		}
		emit("degradation", dg.Render(), dg.CSV())
		ran = true
	}
	if !ran {
		return fmt.Errorf("unknown experiment %q (want all|table1|figure1|figure2|section5|dimes|casestudy|multiscale|bias|fusion|predict|peergeo|stability|density|services|crawlquality|degradation)", *expSel)
	}
	if emitErr != nil {
		return emitErr
	}
	if *outDir != "" {
		fmt.Fprintf(stdout, "artifacts written to %s\n", *outDir)
	}
	if err := traceFlags.Finish(stderr); err != nil {
		return err
	}
	return obsFlags.Finish(stdout)
}
