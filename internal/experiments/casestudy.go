package experiments

import (
	"fmt"
	"sort"
	"strings"

	"eyeballas/internal/astopo"
	"eyeballas/internal/bgp"
	"eyeballas/internal/core"
	"eyeballas/internal/relationships"
)

// CaseStudy reproduces the paper's §6 study of a metropolitan-area
// eyeball AS (AS 8234, RAI, Rome): the geography-based expectation of its
// connectivity versus the far richer reality visible in relationship and
// IXP data.
type CaseStudy struct {
	Subject     astopo.ASN
	SubjectName string
	NSamples    int
	Class       core.Classification
	PoPCities   []string

	// The naive geography-based expectation for a city-level eyeball:
	// one or two regional/national upstreams and peering at the local
	// exchange.
	ExpectedMaxUpstreams int
	LocalIXPName         string
	RemoteIXPName        string

	// Observed reality.
	ActualUpstreams []string // ground-truth provider names
	// InferredUpstreams are the providers recovered by Gao-style
	// inference over BGP paths. This is typically a strict subset of
	// ActualUpstreams: backup and low-preference provider links rarely
	// appear on best paths, the very (in)completeness of BGP-derived
	// topology the paper's introduction cites (Oliveira et al.).
	InferredUpstreams []string
	MemberOfLocalIXP  bool
	MemberOfRemoteIXP bool
	RemotePeers       []string // peer names at the remote exchange
	// RemotePeersAlsoLocal flags which remote peers are *also* present
	// at the local exchange (the paper's GARR): peering with the others
	// is only possible remotely, rationalizing the remote arrangement.
	RemotePeersAlsoLocal []bool
}

// RunCaseStudy interrogates the planted §6 scenario through measurement
// data: the subject's footprint and classification come from the
// pipeline, its upstreams from relationship inference over BGP paths
// (cross-checked against ground truth), and its peerings from the IXP
// dataset.
func RunCaseStudy(env *Env) (*CaseStudy, error) {
	refs := env.World.CaseStudy()
	if refs == nil {
		return nil, fmt.Errorf("experiments: world carries no case study")
	}
	rec := env.Dataset.AS(refs.Subject)
	if rec == nil {
		return nil, fmt.Errorf("experiments: case-study subject %d not in the target dataset", refs.Subject)
	}
	cs := &CaseStudy{
		Subject:              refs.Subject,
		SubjectName:          env.World.AS(refs.Subject).Name,
		NSamples:             len(rec.Samples),
		Class:                rec.Class,
		ExpectedMaxUpstreams: 2,
		LocalIXPName:         env.World.IXP(refs.LocalIXP).Name,
		RemoteIXPName:        env.World.IXP(refs.RemoteIXP).Name,
	}

	fp, err := core.EstimateFootprint(env.World.Gazetteer, rec.Samples, core.Options{})
	if err != nil {
		return nil, err
	}
	for _, p := range fp.PoPs {
		cs.PoPCities = append(cs.PoPCities, p.City.Name)
	}

	// Ground-truth upstreams.
	for _, p := range env.World.Providers(refs.Subject) {
		cs.ActualUpstreams = append(cs.ActualUpstreams, env.World.AS(p).Name)
	}
	sort.Strings(cs.ActualUpstreams)

	// Inferred upstreams from BGP paths (three tier-1 and three eyeball
	// vantages).
	inf := relationships.Infer(caseStudyRIBs(env)...)
	for _, p := range inf.Providers(refs.Subject) {
		if a := env.World.AS(p); a != nil {
			cs.InferredUpstreams = append(cs.InferredUpstreams, a.Name)
		}
	}
	sort.Strings(cs.InferredUpstreams)

	// IXP view.
	cs.MemberOfLocalIXP = env.IXPData.MemberOf(refs.LocalIXP, refs.Subject)
	cs.MemberOfRemoteIXP = env.IXPData.MemberOf(refs.RemoteIXP, refs.Subject)
	for _, peer := range env.IXPData.PeersAt(refs.Subject, refs.RemoteIXP) {
		cs.RemotePeers = append(cs.RemotePeers, env.World.AS(peer).Name)
		cs.RemotePeersAlsoLocal = append(cs.RemotePeersAlsoLocal,
			env.IXPData.MemberOf(refs.LocalIXP, peer))
	}
	return cs, nil
}

func caseStudyRIBs(env *Env) []*bgp.RIB {
	var ribs []*bgp.RIB
	tier1s := 0
	for _, a := range env.World.ASes() {
		if a.Kind == astopo.KindTier1 && tier1s < 5 {
			if rib, err := bgp.BuildRIB(env.World, env.Routing, a.ASN); err == nil {
				ribs = append(ribs, rib)
				tier1s++
			}
		}
	}
	eyeballs := 0
	for _, a := range env.World.Eyeballs() {
		if rib, err := bgp.BuildRIB(env.World, env.Routing, a.ASN); err == nil {
			ribs = append(ribs, rib)
			eyeballs++
		}
		if eyeballs == 8 {
			break
		}
	}
	return ribs
}

// Render narrates the case study the way §6 does.
func (cs *CaseStudy) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "§6 case study: AS %d (%s)\n", cs.Subject, cs.SubjectName)
	fmt.Fprintf(&b, "  %d P2P users, classified %s-level (%s, %.1f%% containment)\n",
		cs.NSamples, cs.Class.Level, cs.Class.Place, 100*cs.Class.Share)
	fmt.Fprintf(&b, "  PoP-level footprint: %s\n", strings.Join(cs.PoPCities, ", "))
	fmt.Fprintf(&b, "\n  Geography-based expectation: <= %d regional upstream(s); local peering at %s\n",
		cs.ExpectedMaxUpstreams, cs.LocalIXPName)
	fmt.Fprintf(&b, "\n  Observed upstreams (%d): %s\n", len(cs.ActualUpstreams), strings.Join(cs.ActualUpstreams, ", "))
	fmt.Fprintf(&b, "  Inferred from BGP paths (%d): %s\n", len(cs.InferredUpstreams), strings.Join(cs.InferredUpstreams, ", "))
	if len(cs.InferredUpstreams) < len(cs.ActualUpstreams) {
		fmt.Fprintf(&b, "  (BGP best paths hide %d backup provider link(s) — the (in)completeness the paper cites)\n",
			len(cs.ActualUpstreams)-len(cs.InferredUpstreams))
	}
	fmt.Fprintf(&b, "  Member of local %s: %v; member of remote %s: %v\n",
		cs.LocalIXPName, cs.MemberOfLocalIXP, cs.RemoteIXPName, cs.MemberOfRemoteIXP)
	for i, p := range cs.RemotePeers {
		note := "remote-only peer"
		if cs.RemotePeersAlsoLocal[i] {
			note = "also present at the local IXP"
		}
		fmt.Fprintf(&b, "  peers at %s with %s (%s)\n", cs.RemoteIXPName, p, note)
	}
	surprise := len(cs.ActualUpstreams) > cs.ExpectedMaxUpstreams
	fmt.Fprintf(&b, "\n  Verdict: upstream richness %d > expected %d: %v; remote-over-local peering: %v\n",
		len(cs.ActualUpstreams), cs.ExpectedMaxUpstreams, surprise,
		cs.MemberOfRemoteIXP && !cs.MemberOfLocalIXP)
	return b.String()
}
