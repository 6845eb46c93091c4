// Command eyeballkde analyzes one eyeball AS's geographic footprint: it
// runs the measurement pipeline, estimates the KDE density surface at one
// or more bandwidths, and prints the PoP-level footprint with an ASCII
// density map — the paper's Figure 1 view for any AS.
//
// Usage:
//
//	eyeballkde [-seed N] [-small] [-asn N] [-bw 20,40,60] [-multiscale]
//	           [-faults spec] [-fault-seed N]
//	           [-metrics out.json|out.prom|-] [-trace] [-pprof :6060]
//
// Without -asn, the Figure 1 subject (the largest country-level AS) is
// analyzed. SIGINT/SIGTERM cancel the run: the pipeline and KDE workers
// stop within one work unit and the process exits non-zero.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"

	"eyeballas"
	"eyeballas/internal/faults"
	"eyeballas/internal/obs"
	"eyeballas/internal/parallel"
	"eyeballas/internal/serve"
	"eyeballas/internal/trace"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("eyeballkde: ")
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout, os.Stderr); err != nil {
		log.Fatal(err)
	}
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("eyeballkde", flag.ContinueOnError)
	fs.SetOutput(stdout)
	seed := fs.Uint64("seed", 42, "world and crawl seed")
	small := fs.Bool("small", false, "use the test-scale world")
	asn := fs.Int("asn", 0, "AS number to analyze (0 = the Figure 1 subject)")
	bwList := fs.String("bw", "20,40,60", "comma-separated kernel bandwidths in km")
	multiscale := fs.Bool("multiscale", false, "also run the multi-scale PoP refinement")
	surface := fs.String("surface", "", "write the density surface(s) as gnuplot-ready lon/lat/density rows to this file (one block per bandwidth)")
	workers := fs.Int("workers", 0, "worker goroutines for the KDE convolution and fan-outs (0 = all CPUs, 1 = serial; output is identical either way)")
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
	ctx = traceFlags.Start(ctx, "eyeballkde.run", *seed, false)
	defer traceFlags.Finish(stderr)

	bandwidths, err := parseBandwidths(*bwList)
	if err != nil {
		return err
	}

	var env *eyeball.Experiments
	if *small {
		env, err = eyeball.NewSmallExperimentsCtx(ctx, *seed, reg, plan, eyeball.WithBatchSize(*batch))
	} else {
		env, err = eyeball.NewExperimentsCtx(ctx, *seed, reg, plan, eyeball.WithBatchSize(*batch))
	}
	if err != nil {
		return err
	}

	subject := eyeball.ASN(*asn)
	if subject == 0 {
		f, err := eyeball.RunFigure1(env, bandwidths)
		if err != nil {
			return err
		}
		fmt.Fprint(stdout, f.Render())
		subject = f.ASN
	} else {
		rec := env.Dataset.AS(subject)
		if rec == nil {
			return fmt.Errorf("AS %d is not in the target dataset (below the peer floor, filtered, or unknown)", *asn)
		}
		a := env.World.AS(rec.ASN)
		fmt.Fprintf(stdout, "AS %d (%s): %d usable peers, classified %s-level (%s)\n",
			rec.ASN, a.Name, len(rec.Samples), rec.Class.Level, rec.Class.Place)
		for _, bw := range bandwidths {
			fp, err := eyeball.EstimateFootprintCtx(ctx, env.World, rec.Samples, eyeball.FootprintOptions{BandwidthKm: bw, Workers: *workers, Obs: reg})
			if err != nil {
				return err
			}
			fmt.Fprintf(stdout, "\nbandwidth %.0f km: %d peaks, %d PoPs, %d partition(s)\n",
				bw, len(fp.Peaks), len(fp.PoPs), len(fp.Partitions))
			fmt.Fprintf(stdout, "PoP-level footprint: %s\n", fp.CityList())
		}
	}
	if *multiscale {
		if err := renderMultiScale(ctx, stdout, env, subject, *workers, reg); err != nil {
			return err
		}
	}
	if *surface != "" {
		if err := writeSurface(ctx, *surface, env, subject, bandwidths, *workers, reg); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "\nwrote density surface(s) to %s\n", *surface)
	}
	if err := traceFlags.Finish(stderr); err != nil {
		return err
	}
	return obsFlags.Finish(stdout)
}

// writeSurface dumps each bandwidth's density grid as whitespace-separated
// "lon lat density" rows, with a blank line between grid rows and a
// double blank line between bandwidth blocks — the format gnuplot's
// `splot ... with pm3d` consumes, recreating the paper's 3-D Figure 1.
func writeSurface(ctx context.Context, path string, env *eyeball.Experiments, asn eyeball.ASN, bandwidths []float64, workers int, reg *eyeball.Registry) error {
	rec := env.Dataset.AS(asn)
	if rec == nil {
		return fmt.Errorf("AS %d is not in the target dataset", asn)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	for _, bw := range bandwidths {
		fp, err := eyeball.EstimateFootprintCtx(ctx, env.World, rec.Samples, eyeball.FootprintOptions{BandwidthKm: bw, Workers: workers, Obs: reg})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "# AS %d bandwidth %.0f km grid %dx%d cell %.1f km\n",
			asn, bw, fp.Grid.W, fp.Grid.H, fp.Grid.Cell)
		for j := 0; j < fp.Grid.H; j++ {
			for i := 0; i < fp.Grid.W; i++ {
				p := fp.Projection.ToGeo(fp.Grid.Center(i, j))
				fmt.Fprintf(w, "%.4f %.4f %.6g\n", p.Lon, p.Lat, fp.Grid.At(i, j))
			}
			fmt.Fprintln(w)
		}
		fmt.Fprintln(w)
	}
	return w.Flush()
}

func renderMultiScale(ctx context.Context, stdout io.Writer, env *eyeball.Experiments, asn eyeball.ASN, workers int, reg *eyeball.Registry) error {
	rec := env.Dataset.AS(asn)
	ms, err := eyeball.MultiScaleFootprintCtx(ctx, env.World, rec.Samples, eyeball.MultiScaleOptions{
		Base: eyeball.FootprintOptions{Workers: workers, Obs: reg},
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "\nmulti-scale refinement (10-80 km): %d PoPs\n", len(ms))
	for _, p := range ms {
		fmt.Fprintf(stdout, "  %-16s density %.3f  scales %2.0f-%2.0f km  persistence %d  anchor %s\n",
			p.City.Name, p.Density, p.FinestKm, p.CoarsestKm, p.Persistence, p.Anchor)
	}
	return nil
}

// parseBandwidths reads the -bw list; each entry must pass
// serve.ValidBandwidth, the rule the server applies to ?bw=.
func parseBandwidths(s string) ([]float64, error) {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil || !serve.ValidBandwidth(v) {
			return nil, fmt.Errorf("-bw: invalid bandwidth %q (want 0 < bw <= %d km)", part, serve.MaxBandwidthKm)
		}
		out = append(out, v)
	}
	return out, nil
}
