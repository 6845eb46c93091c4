// Package experiments regenerates every table and figure of the paper's
// evaluation over the synthetic world: Table 1 (target-dataset profile),
// Figure 1 (multi-bandwidth density surfaces), Figures 2(a)/2(b)
// (validation against published PoP lists), the §5 scalar statistics and
// DIMES comparison, and the §6 connectivity case study.
package experiments

import (
	"context"
	"fmt"

	"eyeballas/internal/astopo"
	"eyeballas/internal/bgp"
	"eyeballas/internal/core"
	"eyeballas/internal/faults"
	"eyeballas/internal/ixp"
	"eyeballas/internal/obs"
	"eyeballas/internal/p2p"
	"eyeballas/internal/parallel"
	"eyeballas/internal/pipeline"
	"eyeballas/internal/refdata"
	"eyeballas/internal/rng"
	"eyeballas/internal/trace"
	"eyeballas/internal/traceroute"
)

// Scale selects the world size.
type Scale int

// Available scales.
const (
	// ScaleSmall is for tests: ~60 eyeball ASes.
	ScaleSmall Scale = iota
	// ScaleDefault is the full experiment scale: ~650 eyeball ASes,
	// the paper's 1233 shrunk to keep a laptop run in seconds.
	ScaleDefault
	// ScalePaper is the paper's population: 1233 eyeball ASes and the
	// literal 1000-peer floor. A full run takes a few minutes and
	// several GB.
	ScalePaper
)

// Env bundles the world and every measurement dataset the experiments
// consume, generated once from a single seed.
type Env struct {
	Seed      uint64
	World     *astopo.World
	Routing   *bgp.Routing
	Dataset   *pipeline.Dataset
	Reference *refdata.Reference
	IXPData   *ixp.Dataset
	Traces    []traceroute.Trace
	// PipeCfg is the pipeline configuration the Dataset was built with,
	// kept so experiments that rebuild the pipeline (stability, crawl
	// quality, degradation) reuse the same thresholds.
	PipeCfg pipeline.Config
	// Ctx, when non-nil, cancels every experiment runner's worker pools
	// and pipeline rebuilds (the CLIs set it to their signal context);
	// a per-AS fan-out stops dispatching between ASes once it is done.
	// It carries the run's trace, if any, to the environment build and
	// the rebuilds, so their spans nest under it; per-AS estimates run
	// untraced. Nil means context.Background().
	Ctx context.Context
}

// ctx returns the environment's cancellation context.
func (e *Env) ctx() context.Context {
	if e.Ctx != nil {
		return e.Ctx
	}
	return context.Background()
}

// EnvOption adjusts the pipeline configuration an environment is built
// with — the hook the CLIs use to surface streaming-ingestion knobs
// without growing every constructor's signature.
type EnvOption func(*pipeline.Config)

// WithBatchSize sets the streaming ingestion batch size (pipeline
// Config.BatchSize); <= 0 keeps the default. Datasets are bit-identical
// for every setting — the knob bounds transient memory only.
func WithBatchSize(n int) EnvOption {
	return func(c *pipeline.Config) { c.BatchSize = n }
}

// NewEnv generates the full experimental environment.
func NewEnv(seed uint64, scale Scale) (*Env, error) {
	return NewEnvCtx(nil, seed, scale, nil, nil)
}

// NewEnvCtx is NewEnv with an observability registry threaded through
// every stage (crawl/pipeline metrics and funnel, BGP and KDE metrics;
// nil disables them and changes nothing about the environment), a
// cancellation context stored on the environment — every worker pool,
// crawl, and pipeline rebuild the experiments launch observes it (nil
// means context.Background()) — and an optional fault-injection plan
// threaded into the pipeline build. A nil plan is the unfaulted,
// bit-identical default.
func NewEnvCtx(ctx context.Context, seed uint64, scale Scale, reg *obs.Registry, plan *faults.Plan, opts ...EnvOption) (*Env, error) {
	var cfg astopo.Config
	var pipeCfg pipeline.Config
	switch scale {
	case ScaleSmall:
		cfg = astopo.SmallConfig(seed)
		pipeCfg = pipeline.DefaultConfig()
		pipeCfg.MinPeers = 60
	case ScaleDefault:
		cfg = astopo.DefaultConfig(seed)
		pipeCfg = pipeline.DefaultConfig()
	case ScalePaper:
		cfg = astopo.PaperConfig(seed)
		pipeCfg = pipeline.PaperConfig()
	default:
		return nil, fmt.Errorf("experiments: unknown scale %d", scale)
	}
	pipeCfg.Obs = reg
	pipeCfg.Faults = plan
	for _, opt := range opts {
		opt(&pipeCfg)
	}
	genSpan := trace.FromContext(ctx).Child("experiments.generate_world")
	w, err := astopo.Generate(cfg)
	genSpan.End()
	if err != nil {
		return nil, err
	}
	return NewEnvWithWorldCtx(ctx, w, seed, pipeCfg)
}

// NewEnvWithWorldCtx builds the measurement environment over an
// existing world — typically one loaded from a snapshot — with explicit
// conditioning thresholds and a cancellation context stored on the
// environment (nil means context.Background()).
func NewEnvWithWorldCtx(ctx context.Context, w *astopo.World, seed uint64, pipeCfg pipeline.Config) (*Env, error) {
	span := trace.FromContext(ctx).Child("experiments.env")
	defer span.End()
	env := &Env{Seed: seed, World: w, PipeCfg: pipeCfg, Ctx: ctx}
	routingSpan := span.Child("routing")
	env.Routing = bgp.ComputeRouting(w)
	routingSpan.End()
	var err error
	env.Dataset, _, err = pipeline.Run(trace.NewContext(env.ctx(), span), w, p2p.DefaultConfig(), pipeCfg, seed)
	if err != nil {
		return nil, err
	}
	root := rng.New(seed)
	refSpan := span.Child("refdata")
	env.Reference = refdata.Build(w, root.Split("refdata"))
	refSpan.End()
	// The paper consults the IXP mapping dataset as best-effort ground
	// truth (§6), so every IXP peering is observed.
	ixpSpan := span.Child("ixpdata")
	env.IXPData = ixp.Build(w)
	ixpSpan.End()
	trSpan := span.Child("traceroute")
	env.Traces, err = traceroute.Simulate(w, env.Routing)
	trSpan.End()
	if err != nil {
		return nil, err
	}
	return env, nil
}

// pops estimates the footprint of every AS in asns from its record in
// ds at bwKm and returns the PoPs of asns[i] in out[i]. This is the one
// per-AS fan-out the runners share: it runs on the shared pool under
// the environment's context, which stops dispatching between ASes once
// it is done, and the estimates carry no trace, so a run's span budget
// goes to its rebuilds. Each AS must be in ds.
func (e *Env) pops(ds *pipeline.Dataset, asns []astopo.ASN, bwKm float64) ([][]core.PoP, error) {
	out := make([][]core.PoP, len(asns))
	err := parallel.ForEach(e.ctx(), 0, asns, func(i int, asn astopo.ASN) error {
		fp, err := core.EstimateFootprint(e.World.Gazetteer, ds.AS(asn).Samples, core.Options{BandwidthKm: bwKm})
		if err != nil {
			return fmt.Errorf("experiments: AS %d at %g km: %w", asn, bwKm, err)
		}
		out[i] = fp.PoPs
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// rebuild reruns the pipeline over the environment's world with the
// environment's thresholds, the given crawl, fault plan and seed. It is
// outside the run's funnel: the rebuild records into no registry.
func (e *Env) rebuild(crawlCfg p2p.Config, plan *faults.Plan, seed uint64) (*pipeline.Dataset, error) {
	cfg := e.PipeCfg
	cfg.Obs, cfg.Faults = nil, plan
	ds, _, err := pipeline.Run(e.ctx(), e.World, crawlCfg, cfg, seed)
	return ds, err
}

// commonASes returns the ASes eligible in every dataset, in the first
// dataset's order.
func commonASes(dss ...*pipeline.Dataset) []astopo.ASN {
	var common []astopo.ASN
next:
	for _, asn := range dss[0].Order {
		for _, ds := range dss[1:] {
			if ds.AS(asn) == nil {
				continue next
			}
		}
		common = append(common, asn)
	}
	return common
}
