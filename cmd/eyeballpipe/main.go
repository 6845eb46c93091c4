// Command eyeballpipe runs the paper's four-step measurement pipeline
// (§2) over a synthetic world and prints the target-dataset profile —
// the reproduction of Table 1 — along with the conditioning statistics.
// With -dump it also exports the per-AS dataset as CSV.
//
// Usage:
//
//	eyeballpipe [-seed N] [-small] [-minpeers N] [-dump dataset.csv]
//	            [-snapshot out.snap] [-snapshot-label s]
//	            [-footprint ASN] [-footprint-out fp.json] [-footprint-bw KM]
//	            [-faults spec] [-fault-seed N] [-max-geo-miss F] [-max-origin-miss F]
//	            [-single-db] [-single-db-fallback]
//	            [-batch N] [-as-sample-cap N]
//	            [-quiet] [-metrics out.json|out.prom|-] [-trace] [-pprof :6060]
//	            [-trace-out build-trace.json]
//
// -snapshot writes the built dataset plus the compiled LPM origin table
// as a versioned binary serving artifact for cmd/eyeballserve; -footprint
// renders one AS's PoP footprint with the same code path the server's
// /v1/footprint endpoint uses, so the two outputs are byte-identical.
//
// The crawl is generated unit by unit and fed straight into the
// pipeline, never materialized, so peak memory is bounded by the kept
// users; -batch and -as-sample-cap tune that bound. Output is
// bit-identical for every -batch and -workers setting (CI diffs them).
//
// -trace prints the build's span tree to stderr and -trace-out writes the
// same tree as canonical JSON: one "eyeballpipe.build" root over
// "pipeline.run" and its origin-table and build stages; the build's
// "locate" stage records the time spent generating the crawl as
// "source_ns".
//
// SIGINT/SIGTERM cancel the run: the pipeline's workers stop within one
// work unit, the process exits non-zero, and -metrics still writes a
// partial snapshot of the counters flushed so far.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"syscall"

	"eyeballas"
	"eyeballas/internal/faults"
	"eyeballas/internal/obs"
	"eyeballas/internal/parallel"
	"eyeballas/internal/serve"
	"eyeballas/internal/snapshot"
	"eyeballas/internal/trace"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("eyeballpipe: ")
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout, os.Stderr); err != nil {
		log.Fatal(err)
	}
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("eyeballpipe", flag.ContinueOnError)
	fs.SetOutput(stdout)
	seed := fs.Uint64("seed", 42, "world and crawl seed")
	small := fs.Bool("small", false, "use the test-scale world")
	minPeers := fs.Int("minpeers", 0, "override the per-AS peer floor (0 = scale default)")
	workers := fs.Int("workers", 0, "worker goroutines for the pipeline's parallel stages (0 = all CPUs, 1 = serial; output is identical either way)")
	dump := fs.String("dump", "", "write the per-AS target dataset as CSV to this file")
	worldPath := fs.String("world", "", "load the world from a snapshot written by eyeballgen -save instead of generating")
	quiet := fs.Bool("quiet", false, "suppress the one-line funnel summary on stderr")
	maxGeoMiss := fs.Float64("max-geo-miss", 0, "abort the build when the geolocation miss fraction exceeds this budget (0 disables)")
	maxOriginMiss := fs.Float64("max-origin-miss", 0, "abort the build when the origin-lookup miss fraction exceeds this budget (0 disables)")
	singleDB := fs.Bool("single-db", false, "run with the primary geolocation database only (no cross-database error estimates; dataset marked degraded)")
	singleDBFallback := fs.Bool("single-db-fallback", false, "when exactly one database blows the geo budget, retry with the survivor instead of failing")
	batch := fs.Int("batch", 0, "peers per streaming ingestion batch (0 = default; bounds transient memory only, output is identical for every setting)")
	sampleCap := fs.Int("as-sample-cap", 0, "cap per-AS retained samples via a deterministic reservoir + quantile sketch (0 = keep all, exact statistics)")
	snapPath := fs.String("snapshot", "", "write the built dataset + compiled LPM as a versioned binary serving artifact (eyeballas-snap/1) to this file")
	snapLabel := fs.String("snapshot-label", "eyeballpipe", "provenance label recorded in the snapshot artifact")
	footprintASN := fs.Int("footprint", 0, "render the PoP-level footprint of this AS as canonical JSON (same bytes eyeballserve's /v1/footprint returns)")
	footprintOut := fs.String("footprint-out", "", "write the -footprint JSON to this file instead of stdout")
	footprintBW := fs.Float64("footprint-bw", 40, "kernel bandwidth in km for -footprint")
	traceOut := fs.String("trace-out", "", "write one offline build trace (stage spans with trace parentage, IDs derived from -seed) as canonical JSON to this file")
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
	reg := obsFlags.Registry() // nil unless an observability flag was given
	if reg != nil {
		parallel.SetMetrics(parallel.MetricsFrom(reg))
		defer parallel.SetMetrics(nil)
	}
	if err := obsFlags.Start(stderr); err != nil {
		return err
	}
	// Idempotent: on the normal path the explicit Finish below does the
	// work; on error paths (including cancellation mid-pipeline) this
	// deferred call still writes a partial -metrics snapshot.
	defer obsFlags.Finish(stdout)

	var w *eyeball.World
	switch {
	case *worldPath != "":
		f, err2 := os.Open(*worldPath)
		if err2 != nil {
			return err2
		}
		w, err = eyeball.LoadWorld(f)
		f.Close()
	case *small:
		w, err = eyeball.GenerateSmallWorld(*seed)
	default:
		w, err = eyeball.GenerateWorld(*seed)
	}
	if err != nil {
		return err
	}

	cfg := eyeball.DefaultPipelineConfig()
	if *minPeers > 0 {
		cfg.MinPeers = *minPeers
	}
	cfg.Workers = *workers
	cfg.Obs = reg
	cfg.Faults = plan
	cfg.MaxGeoMissFrac = *maxGeoMiss
	cfg.MaxOriginMissFrac = *maxOriginMiss
	cfg.SingleDB = *singleDB
	cfg.SingleDBFallback = *singleDBFallback
	cfg.BatchSize = *batch
	cfg.MaxSamplesPerAS = *sampleCap
	// The build runs under one trace root: the pipeline's stage spans
	// pick up parentage from the context, so an offline build emits the
	// same trace shape a served request does. -trace prints the tree and
	// -trace-out writes it as JSON. IDs derive from -seed, making the
	// trace's identity — though not its timings — reproducible.
	buildCtx := traceFlags.Start(ctx, "eyeballpipe.build", *seed, *traceOut != "")
	ds, origins, err := eyeball.BuildTargetDatasetCtx(buildCtx, w, eyeball.DefaultCrawlConfig(), cfg, *seed)
	if terr := traceFlags.Finish(stderr); terr != nil {
		return terr
	}
	if *traceOut != "" {
		if terr := writeTrace(*traceOut, traceFlags.Root()); terr != nil {
			return terr
		}
		fmt.Fprintf(stderr, "wrote build trace (%d spans) to %s\n", traceFlags.Root().SpanCount(), *traceOut)
	}
	if err != nil {
		return err
	}
	if ds.Degraded {
		fmt.Fprintf(stderr, "degraded: %s\n", ds.DegradedReason)
	}
	if !*quiet {
		// The funnel is always built; the summary is the paper's 89.1M →
		// 48M conditioning story in one line.
		fmt.Fprintf(stderr, "funnel: %s\n", ds.Funnel.Summary())
	}

	fmt.Fprintf(stdout, "target dataset: %d eligible eyeball ASes, %d usable peers\n",
		len(ds.Order), ds.TotalPeers)
	fmt.Fprintf(stdout, "drops: %d no-city, %d geo-err>%.0fkm, %d unmapped IP, %d duplicate IP\n",
		ds.Drops.NoCityRecord, ds.Drops.HighGeoErr, cfg.MaxGeoErrKm, ds.Drops.UnmappedIP, ds.Drops.DupIP)
	fmt.Fprintf(stdout, "       %d ASes below %d peers, %d ASes with p90 geo err > %.0f km\n\n",
		ds.Drops.SmallAS, cfg.MinPeers, ds.Drops.HighErrAS, cfg.MaxP90GeoErrKm)

	env := &eyeball.Experiments{World: w, Dataset: ds}
	fmt.Fprint(stdout, eyeball.RunTable1(env).Render())

	if *dump != "" {
		f, err := os.Create(*dump)
		if err != nil {
			return err
		}
		if err := eyeball.WriteDatasetCSV(f, w, ds); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "\nwrote per-AS dataset to %s\n", *dump)
	}

	if *snapPath != "" {
		snap := &eyeball.DatasetSnapshot{
			Meta:    eyeball.SnapshotMeta{Seed: *seed, Label: *snapLabel},
			Dataset: ds,
			Origins: origins,
		}
		data := snapshot.Encode(snap)
		// The snap-corrupt fault point mangles the rendered bytes before
		// they reach disk — the harness that proves readers reject
		// checksum-damaged artifacts end to end.
		if flipped := snapshot.Mangle(data, plan.Injector(faults.SnapCorrupt)); flipped > 0 {
			fmt.Fprintf(stderr, "faults: snap-corrupt flipped %d bytes of %s\n", flipped, *snapPath)
		}
		// Crash-safe publish: the artifact lands via temp file + fsync +
		// rename, so a serving process reloading this path mid-write can
		// never read a torn snapshot.
		if err := snapshot.WriteFileAtomicBytes(*snapPath, data); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote snapshot artifact to %s (%d bytes, %d ASes)\n",
			*snapPath, len(data), len(ds.Order))
	}

	if *footprintASN != 0 {
		rec := ds.AS(eyeball.ASN(*footprintASN))
		if rec == nil {
			return fmt.Errorf("eyeballpipe: -footprint AS%d not in dataset", *footprintASN)
		}
		body, err := serve.RenderFootprint(ctx, eyeball.Gazetteer(), rec, *footprintBW, cfg.Workers, reg)
		if err != nil {
			return err
		}
		if *footprintOut != "" {
			if err := os.WriteFile(*footprintOut, body, 0o644); err != nil {
				return err
			}
			fmt.Fprintf(stdout, "wrote footprint of AS%d to %s\n", *footprintASN, *footprintOut)
		} else {
			stdout.Write(body)
		}
	}
	return obsFlags.Finish(stdout)
}

// writeTrace writes root's trace to path as canonical JSON.
func writeTrace(path string, root *trace.Span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := trace.WriteJSON(f, root); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
