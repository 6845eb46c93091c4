// Package eyeball is the public API of the reproduction of "Eyeball
// ASes: From Geography to Connectivity" (Rasti, Magharei, Rejaie,
// Willinger; IMC 2010).
//
// The library determines the geographic footprint of eyeball ASes —
// Autonomous Systems that serve end users — from the geo-locations of
// those users, estimates their likely PoP locations from the peaks of a
// kernel density surface, and studies what geography does (and does not)
// predict about their connectivity.
//
// Because the paper's datasets (89M crawled P2P peers, commercial
// geolocation databases, RouteViews tables, DIMES traceroutes) are not
// redistributable, the library ships a complete synthetic-Internet
// substrate: a ground-truth world generator plus imperfect measurement
// simulators for each input. Every experiment therefore has exact ground
// truth to validate against. See DESIGN.md for the substitution mapping.
//
// Typical use:
//
//	w, err := eyeball.GenerateWorld(42)           // synthetic Internet
//	ds, err := eyeball.BuildTargetDataset(w, 42)  // crawl + geolocate + group + filter
//	rec := ds.Records()[0]                        // one eyeball AS
//	fp, err := eyeball.EstimateFootprint(w, rec.Samples, eyeball.FootprintOptions{})
//	fmt.Println(fp.CityList())                    // "[Milan (.130), Rome (.122), …]"
package eyeball

import (
	"context"
	"io"

	"eyeballas/internal/astopo"
	"eyeballas/internal/bgp"
	"eyeballas/internal/core"
	"eyeballas/internal/experiments"
	"eyeballas/internal/faults"
	"eyeballas/internal/gazetteer"
	"eyeballas/internal/geo"
	"eyeballas/internal/obs"
	"eyeballas/internal/p2p"
	"eyeballas/internal/pipeline"
	"eyeballas/internal/snapshot"
)

// Core domain types, re-exported from the implementation packages so the
// whole workflow is reachable through this one import.
type (
	// World is a generated ground-truth Internet: ASes with PoPs,
	// relationships, IXPs, and the shared geography.
	World = astopo.World
	// ASN is an Autonomous System number.
	ASN = astopo.ASN
	// AS is one Autonomous System with its ground truth.
	AS = astopo.AS
	// Level is an AS's geographic scope (city/state/country/continent/
	// global).
	Level = astopo.Level
	// WorldConfig controls world generation.
	WorldConfig = astopo.Config

	// Sample is one usable peer observation (geolocated IP).
	Sample = core.Sample
	// Footprint is an estimated geo- and PoP-level footprint.
	Footprint = core.Footprint
	// PoP is one inferred Point of Presence.
	PoP = core.PoP
	// FootprintOptions tune the KDE and PoP extraction; zero values take
	// the paper's defaults (40 km bandwidth, α = 0.01).
	FootprintOptions = core.Options
	// Classification is an AS's inferred geographic scope.
	Classification = core.Classification
	// MatchResult scores discovered PoPs against a reference list.
	MatchResult = core.MatchResult

	// Dataset is the conditioned target dataset of eligible eyeball ASes.
	Dataset = pipeline.Dataset
	// ASRecord is one eligible eyeball AS with its usable samples.
	ASRecord = pipeline.ASRecord
	// PipelineConfig holds the §2/§3.1 conditioning thresholds.
	PipelineConfig = pipeline.Config
	// CrawlConfig controls the P2P crawl simulation.
	CrawlConfig = p2p.Config
	// Peer is one observed P2P user.
	Peer = p2p.Peer
	// PeerStream is a pull iterator over crawled peers (io.Reader-style
	// Next contract).
	PeerStream = p2p.PeerStream
	// PeerSource opens replayable peer streams — the ingestion shape the
	// streaming pipeline consumes without materializing a crawl.
	PeerSource = p2p.PeerSource

	// Registry collects the metrics and funnels of one run; assign one
	// to PipelineConfig.Obs / CrawlConfig.Obs / FootprintOptions.Obs to
	// enable instrumentation. Stage spans are not kept here: they come
	// from the trace carried by a Ctx entry point's context. A nil
	// Registry is the disabled state: outputs are bit-identical either
	// way.
	Registry = obs.Registry
	// FunnelReport is the stage-by-stage in/out/drop accounting of a
	// pipeline build (Dataset.Funnel).
	FunnelReport = obs.Funnel

	// FaultPlan is a seed-deterministic fault-injection plan; assign one
	// to PipelineConfig.Faults / CrawlConfig.Faults to degrade the
	// measurement inputs reproducibly. A nil plan disables injection and
	// is bit-identical to running without one.
	FaultPlan = faults.Plan
	// BudgetError reports a pipeline build aborted because a stage's
	// error budget was exceeded (PipelineConfig.MaxGeoMissFrac /
	// MaxOriginMissFrac); detect it with errors.As.
	BudgetError = pipeline.BudgetError

	// Experiments bundles everything needed to regenerate the paper's
	// tables and figures; see the experiment runner functions below.
	Experiments = experiments.Env
)

// Geographic scope levels.
const (
	LevelCity      = astopo.LevelCity
	LevelState     = astopo.LevelState
	LevelCountry   = astopo.LevelCountry
	LevelContinent = astopo.LevelContinent
	LevelGlobal    = astopo.LevelGlobal
)

// Paper parameter defaults.
const (
	// DefaultBandwidthKm is the §3.1 city-level kernel bandwidth.
	DefaultBandwidthKm = 40.0
	// DefaultAlpha is the §4.1 peak-selection threshold.
	DefaultAlpha = 0.01
	// MatchRadiusKm is the §5 PoP matching radius.
	MatchRadiusKm = core.MatchRadiusKm
)

// GenerateWorld builds a full-scale synthetic Internet (~650 eyeball
// ASes) deterministically from the seed.
func GenerateWorld(seed uint64) (*World, error) {
	return astopo.Generate(astopo.DefaultConfig(seed))
}

// GenerateSmallWorld builds a test-scale world (~60 eyeball ASes).
func GenerateSmallWorld(seed uint64) (*World, error) {
	return astopo.Generate(astopo.SmallConfig(seed))
}

// GenerateWorldWithConfig builds a world from an explicit configuration.
func GenerateWorldWithConfig(cfg WorldConfig) (*World, error) {
	return astopo.Generate(cfg)
}

// BuildTargetDataset runs the paper's four-step methodology over the
// world with default parameters: simulate the three P2P crawls, geolocate
// every peer with two synthetic databases, group peers by AS via
// synthetic BGP tables, and condition with the §2/§3.1 filters.
func BuildTargetDataset(w *World, seed uint64) (*Dataset, error) {
	ds, _, err := pipeline.Run(context.Background(), w, p2p.DefaultConfig(), pipeline.DefaultConfig(), seed)
	return ds, err
}

// BuildTargetDatasetCtx is BuildTargetDataset with explicit crawl and
// conditioning parameters and a cancellation context: crawl, geolocation
// workers, and conditioning all stop within one work unit of ctx being
// cancelled, returning ctx.Err(). The crawl is generated unit by unit and
// fed straight into the pipeline, so peak memory is bounded by the kept
// users (plus cfg.BatchSize transient state), not the crawl size. It also
// returns the origin table the build resolved peers against — the input
// WriteDatasetSnapshot needs, beside the dataset, to produce a serving
// artifact carrying the exact LPM the dataset was conditioned with.
func BuildTargetDatasetCtx(ctx context.Context, w *World, crawlCfg CrawlConfig, cfg PipelineConfig, seed uint64) (*Dataset, *OriginTable, error) {
	return pipeline.Run(ctx, w, crawlCfg, cfg, seed)
}

// CrawlPeerSource returns the replayable streaming source of the three
// simulated crawls — the same peer sequence BuildTargetDataset consumes
// for this (world, crawlCfg, seed) — for callers that want to pump peers
// through pipeline ingestion or export themselves.
func CrawlPeerSource(w *World, crawlCfg CrawlConfig, seed uint64) PeerSource {
	return pipeline.CrawlSource(w, crawlCfg, seed)
}

// WriteCrawlPeers streams the crawl for (w, crawlCfg, seed) into out in
// the textual peers-file format (header + "ip app asn lat lon" rows,
// bit-exact round trip) without materializing it, and returns the number
// of peers written. Read the file back with PeerFileSource.
func WriteCrawlPeers(ctx context.Context, out io.Writer, w *World, crawlCfg CrawlConfig, seed uint64) (int, error) {
	return p2p.WritePeers(ctx, out, CrawlPeerSource(w, crawlCfg, seed))
}

// PeerFileSource reads a peers file written by WriteCrawlPeers as a
// replayable peer source.
func PeerFileSource(path string) PeerSource { return p2p.FileSource(path) }

// EstimateFootprint runs the paper's §3–§4 procedure for one AS's
// samples against the world's geography.
func EstimateFootprint(w *World, samples []Sample, opts FootprintOptions) (*Footprint, error) {
	return core.EstimateFootprint(w.Gazetteer, samples, opts)
}

// EstimateFootprintCtx is EstimateFootprint with a cancellation
// context: the KDE convolution workers stop within one block of ctx
// being cancelled, returning ctx.Err().
func EstimateFootprintCtx(ctx context.Context, w *World, samples []Sample, opts FootprintOptions) (*Footprint, error) {
	return core.EstimateFootprintCtx(ctx, w.Gazetteer, samples, opts)
}

// ParseFaultSpec parses a comma-separated point=rate fault spec (e.g.
// "geo-miss=0.05,origin-miss=0.01") into a plan rooted at seed. An
// empty spec returns a nil plan: injection fully disabled.
func ParseFaultSpec(spec string, seed uint64) (*FaultPlan, error) {
	return faults.ParseSpec(spec, seed)
}

// ClassifyLevel applies the §2 classification rule (> 95% containment).
func ClassifyLevel(samples []Sample) Classification {
	return core.ClassifyLevel(samples)
}

// MatchPoPs validates discovered PoPs against reference locations at the
// given radius (§5).
func MatchPoPs(discovered []PoP, reference []GeoPoint, radiusKm float64) MatchResult {
	return core.MatchPoPs(discovered, reference, radiusKm)
}

// GeoPoint is a geographic coordinate (latitude/longitude in degrees).
type GeoPoint = geo.Point

// DefaultWorldConfig returns the full-scale generation configuration.
func DefaultWorldConfig(seed uint64) WorldConfig { return astopo.DefaultConfig(seed) }

// SmallWorldConfig returns the test-scale generation configuration.
func SmallWorldConfig(seed uint64) WorldConfig { return astopo.SmallConfig(seed) }

// DefaultCrawlConfig returns the Table 1-shaped crawl penetration model.
func DefaultCrawlConfig() CrawlConfig { return p2p.DefaultConfig() }

// NewRegistry returns an empty, enabled observability registry. It can
// snapshot to Prometheus text exposition (WritePrometheus), deterministic
// JSON (WriteJSON), or an HTTP handler (HTTPHandler) serving both plus
// net/http/pprof.
func NewRegistry() *Registry { return obs.New() }

// DefaultPipelineConfig returns the conditioning thresholds at synthetic
// scale.
func DefaultPipelineConfig() PipelineConfig { return pipeline.DefaultConfig() }

// Gazetteer returns the embedded world gazetteer shared by all worlds.
func Gazetteer() *gazetteer.Gazetteer { return gazetteer.Default() }

// SaveWorld serializes a world snapshot (JSON). A snapshot reloads
// bit-identically even across generator changes; see LoadWorld.
func SaveWorld(out io.Writer, world *World) error { return world.WriteSnapshot(out) }

// LoadWorld reconstructs a world from a snapshot written by SaveWorld.
func LoadWorld(in io.Reader) (*World, error) { return astopo.ReadSnapshot(in) }

// RIB is a routing table observed from one vantage AS, with full AS paths
// and longest-prefix-match IP→origin lookup — the synthetic RouteViews
// table dump.
type RIB = bgp.RIB

// OriginTable is the merged multi-vantage IP→origin-AS table (with its
// compiled flat LPM form) the pipeline resolves peers against.
type OriginTable = bgp.OriginTable

// DatasetSnapshot is a versioned binary serving artifact: a conditioned
// dataset plus the compiled origin table it was built with (both from
// BuildTargetDatasetCtx), in the deterministic "eyeballas-snap/1"
// format. Write one with WriteDatasetSnapshot and serve it with
// cmd/eyeballserve.
type DatasetSnapshot = snapshot.Snapshot

// SnapshotMeta is a snapshot artifact's provenance record (seed +
// label; deliberately no timestamps, so artifacts are byte-stable).
type SnapshotMeta = snapshot.Meta

// WriteDatasetSnapshot serializes a snapshot artifact. The bytes are a
// pure function of the contents: the same dataset and origin table
// always produce the same artifact, and reading it back (see
// ReadDatasetSnapshot) reproduces both bit-identically.
func WriteDatasetSnapshot(out io.Writer, snap *DatasetSnapshot) error {
	return snapshot.Write(out, snap)
}

// ReadDatasetSnapshot parses an artifact written by WriteDatasetSnapshot,
// strictly: truncation, checksum damage, bad magic, and version skew are
// all rejected with typed errors (snapshot.ErrTruncated et al.).
func ReadDatasetSnapshot(in io.Reader) (*DatasetSnapshot, error) {
	return snapshot.Read(in)
}

// BuildRIB computes policy routing over the world and materializes the
// RIB seen from the vantage AS. For several RIBs over one world, compute
// the routing once via the lower-level bgp package; this helper recomputes
// it per call.
func BuildRIB(w *World, vantage ASN) (*RIB, error) {
	return bgp.BuildRIB(w, bgp.ComputeRouting(w), vantage)
}
