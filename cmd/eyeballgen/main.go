// Command eyeballgen generates a synthetic Internet world and reports its
// ground truth: AS population by kind, level, and region, IXPs, and
// optionally a RouteViews-style RIB dump.
//
// Usage:
//
//	eyeballgen [-seed N] [-small] [-rib out.rib] [-peers out.peers] [-list]
//	           [-faults spec] [-fault-seed N]
//	           [-metrics out.json|out.prom|-] [-trace] [-pprof :6060]
//
// With -faults, the rib-truncate and rib-corrupt points mangle the -rib
// dump deterministically (a cut-off transfer, mangled rows) — the
// degraded inputs the pipeline's RIB reader must reject or survive.
// SIGINT/SIGTERM cancel the run and exit non-zero.
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"syscall"
	"text/tabwriter"

	"eyeballas"
	"eyeballas/internal/faults"
	"eyeballas/internal/obs"
	"eyeballas/internal/parallel"
	"eyeballas/internal/trace"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("eyeballgen: ")
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout, os.Stderr); err != nil {
		log.Fatal(err)
	}
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("eyeballgen", flag.ContinueOnError)
	fs.SetOutput(stdout)
	seed := fs.Uint64("seed", 42, "world generation seed")
	small := fs.Bool("small", false, "generate the test-scale world (~60 eyeball ASes)")
	ribPath := fs.String("rib", "", "write a RouteViews-style RIB dump from a tier-1 vantage to this file")
	jsonPath := fs.String("json", "", "write the full ground-truth world as JSON to this file")
	savePath := fs.String("save", "", "write a reloadable world snapshot to this file")
	peersPath := fs.String("peers", "", "stream the three simulated P2P crawls to this peers file (re-ingest with eyeballpipe pipelines via the streaming file source)")
	list := fs.Bool("list", false, "list every AS")
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
	ctx = traceFlags.Start(ctx, "eyeballgen.run", *seed, false)
	defer traceFlags.Finish(stderr)
	if err := ctx.Err(); err != nil {
		return err
	}

	var w *eyeball.World
	genSpan := trace.FromContext(ctx).Child("eyeballgen.generate")
	if *small {
		w, err = eyeball.GenerateSmallWorld(*seed)
	} else {
		w, err = eyeball.GenerateWorld(*seed)
	}
	genSpan.End()
	if err != nil {
		return err
	}
	if reg != nil {
		s := w.Stats()
		reg.Gauge("eyeball_world_ases").Set(float64(s.ASes))
		reg.Gauge("eyeball_world_ixps").Set(float64(s.IXPs))
		reg.Gauge("eyeball_world_peerings").Set(float64(s.Peerings))
	}

	s := w.Stats()
	fmt.Fprintf(stdout, "world seed=%d: %d ASes (%d tier-1, %d transit, %d eyeball, %d content)\n",
		*seed, s.ASes, s.Tier1s, s.Transits, s.Eyeballs, s.Contents)
	fmt.Fprintf(stdout, "  %d IXPs, %d peerings, %d provider links\n", s.IXPs, s.Peerings, s.ProviderLinks)
	fmt.Fprintf(stdout, "  eyeballs by region: %v\n", s.ByRegion)
	fmt.Fprintf(stdout, "  eyeballs by level:  %v\n", s.ByLevel)
	if cs := w.CaseStudy(); cs != nil {
		fmt.Fprintf(stdout, "  case study planted: subject AS %d (%s)\n", cs.Subject, w.AS(cs.Subject).Name)
	}

	if *list {
		tw := tabwriter.NewWriter(stdout, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "ASN\tNAME\tKIND\tLEVEL\tCC\tPOPS\tCUSTOMERS")
		for _, a := range w.ASes() {
			fmt.Fprintf(tw, "%d\t%s\t%s\t%s\t%s\t%d\t%d\n",
				a.ASN, a.Name, a.Kind, a.Level, a.Country, len(a.PoPs), a.Customers)
		}
		if err := tw.Flush(); err != nil {
			return err
		}
	}

	if *ribPath != "" {
		vantage := w.ASNs()[0] // the first AS is a tier-1 by construction
		rib, err := eyeball.BuildRIB(w, vantage)
		if err != nil {
			return err
		}
		f, err := os.Create(*ribPath)
		if err != nil {
			return err
		}
		trunc := plan.Injector(faults.RIBTruncate)
		corrupt := plan.Injector(faults.RIBCorrupt)
		if trunc != nil || corrupt != nil {
			// Render the dump in memory, then replay it through the
			// rib-truncate / rib-corrupt injectors: a deterministic model
			// of a cut-off transfer and mangled rows.
			var buf bytes.Buffer
			if _, err := rib.WriteTo(&buf); err != nil {
				f.Close()
				return err
			}
			st, err := faults.MangleLines(f, &buf, trunc, corrupt)
			if err != nil {
				f.Close()
				return err
			}
			fmt.Fprintf(stderr, "faults: rib dump mangled: %d lines kept, %d corrupted, truncated=%v\n",
				st.Lines, st.Corrupted, st.Truncated)
		} else if _, err := rib.WriteTo(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "  wrote %d RIB entries (vantage AS %d) to %s\n", rib.Len(), vantage, *ribPath)
	}

	if *jsonPath != "" {
		f, err := os.Create(*jsonPath)
		if err != nil {
			return err
		}
		if err := eyeball.WriteWorldJSON(f, w); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "  wrote world JSON to %s\n", *jsonPath)
	}

	if *peersPath != "" {
		f, err := os.Create(*peersPath)
		if err != nil {
			return err
		}
		// The crawl is streamed unit by unit into the file — memory stays
		// bounded no matter the world scale — and the sequence is exactly
		// what a pipeline run with the same seed consumes.
		n, err := eyeball.WriteCrawlPeers(ctx, f, w, eyeball.DefaultCrawlConfig(), *seed)
		if err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "  wrote %d crawled peers to %s\n", n, *peersPath)
	}

	if *savePath != "" {
		f, err := os.Create(*savePath)
		if err != nil {
			return err
		}
		if err := eyeball.SaveWorld(f, w); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "  wrote world snapshot to %s\n", *savePath)
	}
	if err := traceFlags.Finish(stderr); err != nil {
		return err
	}
	return obsFlags.Finish(stdout)
}
