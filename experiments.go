package eyeball

import (
	"context"

	"eyeballas/internal/core"
	"eyeballas/internal/experiments"
)

// Multi-scale refinement types (see core.MultiScaleFootprint).
type (
	// MultiScaleOptions configure the multi-bandwidth refinement.
	MultiScaleOptions = core.MultiScaleOptions
	// MultiScalePoP is a PoP confirmed across bandwidths.
	MultiScalePoP = core.MultiScalePoP
)

// Experiment result types, re-exported so the full evaluation is
// reachable through the public API.
type (
	// Table1Result is the target-dataset profile (paper Table 1).
	Table1Result = experiments.Table1
	// Figure1Result is the multi-bandwidth density study (paper Fig. 1).
	Figure1Result = experiments.Figure1
	// Figure2Result is the published-PoP validation (paper Fig. 2a/2b).
	Figure2Result = experiments.Figure2
	// Section5Result collects the §5 scalar statistics.
	Section5Result = experiments.Section5
	// DIMESResult is the §5 traceroute-baseline comparison.
	DIMESResult = experiments.DIMES
	// CaseStudyResult is the §6 connectivity case study.
	CaseStudyResult = experiments.CaseStudy

	// MultiScaleResult evaluates the §5 future-work multi-bandwidth PoP
	// refinement.
	MultiScaleResult = experiments.MultiScale
	// BiasResult is the §4.3 sampling-bias study.
	BiasResult = experiments.Bias
	// FusionResult is the §7 edge+traceroute fusion study.
	FusionResult = experiments.Fusion
	// PredictResult scores a geography-based connectivity predictor
	// (the §1 open question).
	PredictResult = experiments.Predict
	// PeerGeoResult quantifies the §1 claim that peering follows
	// geographic overlap.
	PeerGeoResult = experiments.PeerGeo
	// StabilityResult scores footprint stability across independent
	// monthly crawls.
	StabilityResult = experiments.Stability
	// DensityResult correlates discovered PoP densities with ground-truth
	// presence (the §4.2 claim).
	DensityResult = experiments.Density
	// ServicesResult scores the residential-vs-content footprint
	// classifier (the §3/§7 claim).
	ServicesResult = experiments.Services
	// CrawlQualityResult sweeps crawl effort end-to-end.
	CrawlQualityResult = experiments.CrawlQuality
	// DegradationResult sweeps injected-fault rates and scores how
	// gracefully the discovered footprints degrade.
	DegradationResult = experiments.Degradation
)

// NewSmallExperiments generates the test-scale experimental environment
// from one seed.
func NewSmallExperiments(seed uint64) (*Experiments, error) {
	return experiments.NewEnv(seed, experiments.ScaleSmall)
}

// NewExperimentsCtx generates the full-scale experimental environment
// (world, crawls, geolocation, BGP, reference lists, IXP data,
// traceroutes) from one seed. reg instruments every stage, ctx cancels
// every worker pool, crawl, and pipeline rebuild the experiments launch
// (nil means context.Background()), and plan injects faults into the
// pipeline build; a nil registry or plan leaves the environment
// bit-identical.
func NewExperimentsCtx(ctx context.Context, seed uint64, reg *Registry, plan *FaultPlan, opts ...ExperimentsOption) (*Experiments, error) {
	return experiments.NewEnvCtx(ctx, seed, experiments.ScaleDefault, reg, plan, opts...)
}

// NewSmallExperimentsCtx is NewExperimentsCtx at test scale.
func NewSmallExperimentsCtx(ctx context.Context, seed uint64, reg *Registry, plan *FaultPlan, opts ...ExperimentsOption) (*Experiments, error) {
	return experiments.NewEnvCtx(ctx, seed, experiments.ScaleSmall, reg, plan, opts...)
}

// NewPaperScaleExperimentsCtx is NewExperimentsCtx at the paper's
// population (1233 eyeball ASes, the literal 1000-peer floor); runs take
// minutes.
func NewPaperScaleExperimentsCtx(ctx context.Context, seed uint64, reg *Registry, plan *FaultPlan, opts ...ExperimentsOption) (*Experiments, error) {
	return experiments.NewEnvCtx(ctx, seed, experiments.ScalePaper, reg, plan, opts...)
}

// ExperimentsOption adjusts the pipeline configuration an experiments
// environment is built with.
type ExperimentsOption = experiments.EnvOption

// WithBatchSize sets the streaming ingestion batch size for the
// environment's pipeline build (bit-identical output for every setting;
// the knob bounds transient memory only).
func WithBatchSize(n int) ExperimentsOption { return experiments.WithBatchSize(n) }

// NewExperimentsWithWorldCtx builds the environment over an existing
// world (e.g. one loaded from a snapshot with LoadWorld), with a
// cancellation context stored on the environment. Fault injection is
// configured through cfg.Faults.
func NewExperimentsWithWorldCtx(ctx context.Context, w *World, seed uint64, cfg PipelineConfig) (*Experiments, error) {
	return experiments.NewEnvWithWorldCtx(ctx, w, seed, cfg)
}

// RunTable1 profiles the target dataset (paper Table 1).
func RunTable1(env *Experiments) *Table1Result { return experiments.RunTable1(env) }

// RunFigure1 estimates a national eyeball AS's density surface at the
// paper's three bandwidths (20/40/60 km); pass nil for those defaults.
func RunFigure1(env *Experiments, bandwidths []float64) (*Figure1Result, error) {
	return experiments.RunFigure1(env, bandwidths)
}

// RunFigure2 validates discovered PoPs against published PoP lists at the
// paper's three bandwidths (10/40/80 km); pass nil for those defaults.
func RunFigure2(env *Experiments, bandwidths []float64) (*Figure2Result, error) {
	return experiments.RunFigure2(env, bandwidths)
}

// RunSection5 derives the §5 scalar statistics from a Figure 2 run.
func RunSection5(f2 *Figure2Result) *Section5Result { return experiments.RunSection5(f2) }

// RunDIMES compares KDE-discovered PoPs against the traceroute baseline.
func RunDIMES(env *Experiments) (*DIMESResult, error) { return experiments.RunDIMES(env) }

// RunCaseStudy executes the §6 connectivity case study.
func RunCaseStudy(env *Experiments) (*CaseStudyResult, error) {
	return experiments.RunCaseStudy(env)
}

// RunMultiScale evaluates multi-bandwidth PoP refinement (§5 future
// work) against the fixed-bandwidth analyses.
func RunMultiScale(env *Experiments) (*MultiScaleResult, error) {
	return experiments.RunMultiScale(env)
}

// RunBias runs the §4.3 sampling-bias study (mild and significant bias).
func RunBias(env *Experiments) (*BiasResult, error) { return experiments.RunBias(env) }

// RunFusion evaluates the §7 combination of the edge-based view with
// traceroute observations.
func RunFusion(env *Experiments) (*FusionResult, error) { return experiments.RunFusion(env) }

// RunPredict scores the geography-based connectivity predictor over the
// whole target dataset.
func RunPredict(env *Experiments) (*PredictResult, error) { return experiments.RunPredict(env) }

// RunPeerGeo compares measured-footprint overlap of peering AS pairs
// against random same-region control pairs (the §1 motivation).
func RunPeerGeo(env *Experiments) (*PeerGeoResult, error) { return experiments.RunPeerGeo(env) }

// RunStability crawls the world `months` times with independent seeds and
// scores PoP-footprint stability across the crawls.
func RunStability(env *Experiments, months int) (*StabilityResult, error) {
	return experiments.RunStability(env, months)
}

// RunDensity correlates per-PoP density values against ground-truth
// customer shares across multi-PoP ASes.
func RunDensity(env *Experiments) (*DensityResult, error) { return experiments.RunDensity(env) }

// RunServices scores the footprint-based residential-vs-content
// classifier against ground truth.
func RunServices(env *Experiments) (*ServicesResult, error) { return experiments.RunServices(env) }

// RunDegradation rebuilds the pipeline under injected faults at each
// rate (nil selects the default sweep) and scores footprint similarity
// against the environment's clean dataset.
func RunDegradation(env *Experiments, rates []float64) (*DegradationResult, error) {
	return experiments.RunDegradation(env, rates)
}

// RunCrawlQuality reruns the pipeline at reduced crawl scales and tracks
// dataset size and footprint richness; pass nil for the default sweep.
func RunCrawlQuality(env *Experiments, scales []float64) (*CrawlQualityResult, error) {
	return experiments.RunCrawlQuality(env, scales)
}

// MultiScaleFootprint runs the multi-bandwidth refinement for one AS's
// samples (see core.MultiScaleOptions for knobs).
func MultiScaleFootprint(w *World, samples []Sample, opts MultiScaleOptions) ([]MultiScalePoP, error) {
	return core.MultiScaleFootprint(w.Gazetteer, samples, opts)
}

// MultiScaleFootprintCtx is MultiScaleFootprint with a cancellation
// context threaded through the per-bandwidth fan-out and each KDE run.
func MultiScaleFootprintCtx(ctx context.Context, w *World, samples []Sample, opts MultiScaleOptions) ([]MultiScalePoP, error) {
	return core.MultiScaleFootprintCtx(ctx, w.Gazetteer, samples, opts)
}
