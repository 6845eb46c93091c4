package traceroute

import (
	"sync"
	"testing"

	"eyeballas/internal/astopo"
	"eyeballas/internal/bgp"
	"eyeballas/internal/geo"
)

var shared struct {
	once   sync.Once
	w      *astopo.World
	traces []Trace
	err    error
}

func setup(t *testing.T) (*astopo.World, []Trace) {
	t.Helper()
	shared.once.Do(func() {
		w, err := astopo.Generate(astopo.SmallConfig(101))
		if err != nil {
			shared.err = err
			return
		}
		routing := bgp.ComputeRouting(w)
		traces, err := Simulate(w, routing)
		if err != nil {
			shared.err = err
			return
		}
		shared.w, shared.traces = w, traces
	})
	if shared.err != nil {
		t.Fatal(shared.err)
	}
	return shared.w, shared.traces
}

func TestSimulateProducesTraces(t *testing.T) {
	w, traces := setup(t)
	if len(traces) == 0 {
		t.Fatal("no traces")
	}
	for i, tr := range traces[:200] {
		if len(tr.Hops) == 0 {
			t.Fatalf("trace %d has no hops", i)
		}
		if tr.Hops[0].ASN != tr.From {
			t.Fatalf("trace %d starts at AS %d, want %d", i, tr.Hops[0].ASN, tr.From)
		}
		if tr.Hops[len(tr.Hops)-1].ASN != tr.To {
			t.Fatalf("trace %d ends at AS %d, want %d", i, tr.Hops[len(tr.Hops)-1].ASN, tr.To)
		}
		for _, h := range tr.Hops {
			a := w.AS(h.ASN)
			if a == nil {
				t.Fatalf("hop in unknown AS %d", h.ASN)
			}
			// The hop city must be one of the AS's PoP cities.
			found := false
			for _, p := range a.PoPs {
				if p.City.Name == h.City.Name && p.City.Country == h.City.Country {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("hop city %s not a PoP of AS %d", h.City, h.ASN)
			}
		}
	}
}

func TestPoPsSubsetOfTruth(t *testing.T) {
	w, traces := setup(t)
	pops := PoPs(traces)
	for asn, pts := range pops {
		a := w.AS(asn)
		if len(pts) > len(a.PoPs) {
			t.Errorf("AS %d: %d observed PoPs > %d true PoPs", asn, len(pts), len(a.PoPs))
		}
		for _, pt := range pts {
			ok := false
			for _, p := range a.PoPs {
				if geo.DistanceKm(pt, p.City.Loc) < 1 {
					ok = true
					break
				}
			}
			if !ok {
				t.Errorf("AS %d: observed PoP %v not at a true PoP city", asn, pt)
			}
		}
	}
}

// TestEyeballUndersampling is the §5 DIMES phenomenon: traceroute sees
// far fewer PoPs per eyeball AS than the AS really has, because probes
// funnel through few entry PoPs.
func TestEyeballUndersampling(t *testing.T) {
	w, traces := setup(t)
	pops := PoPs(traces)
	var multiPoP []astopo.ASN
	trueTotal := 0
	for _, a := range w.Eyeballs() {
		if len(a.PoPs) >= 4 {
			multiPoP = append(multiPoP, a.ASN)
			trueTotal += len(a.PoPs)
		}
	}
	if len(multiPoP) == 0 {
		t.Skip("no multi-PoP eyeballs at this seed")
	}
	observed := MeanPoPsPerAS(pops, multiPoP)
	trueMean := float64(trueTotal) / float64(len(multiPoP))
	if observed >= trueMean*0.8 {
		t.Errorf("traceroute observed %.2f PoPs/AS vs true %.2f; expected strong undersampling", observed, trueMean)
	}
	if observed < 1 {
		t.Errorf("observed %.2f PoPs/AS; every probed AS shows at least its entry PoP", observed)
	}
}

func TestMeanPoPsPerAS(t *testing.T) {
	pops := map[astopo.ASN][]geo.Point{
		1: {{Lat: 1}, {Lat: 2}},
		2: {{Lat: 3}},
	}
	if got := MeanPoPsPerAS(pops, []astopo.ASN{1, 2}); got != 1.5 {
		t.Errorf("mean = %v", got)
	}
	if got := MeanPoPsPerAS(pops, []astopo.ASN{3}); got != 0 {
		t.Errorf("absent AS mean = %v", got)
	}
	if got := MeanPoPsPerAS(pops, nil); got != 0 {
		t.Errorf("empty mean = %v", got)
	}
}

func TestTargetedRevealsHomePoPs(t *testing.T) {
	w, _ := setup(t)
	routing := bgp.ComputeRouting(w)
	// Pick a multi-PoP eyeball and target every one of its PoP cities.
	var subject *astopo.AS
	for _, a := range w.Eyeballs() {
		if len(a.UserPoPs()) >= 3 {
			subject = a
			break
		}
	}
	if subject == nil {
		t.Skip("no multi-PoP eyeball at this seed")
	}
	targets := map[astopo.ASN][]geo.Point{subject.ASN: nil}
	for _, p := range subject.UserPoPs() {
		targets[subject.ASN] = append(targets[subject.ASN], p.City.Loc)
	}
	traces, err := Targeted(w, routing, targets, 8)
	if err != nil {
		t.Fatal(err)
	}
	pops := PoPs(traces)[subject.ASN]
	// Targeted probing must reveal at least as many PoPs as the blind
	// campaign reveals for this AS, and at least one per probed city set
	// beyond the single entry PoP.
	if len(pops) < 2 {
		t.Errorf("targeted probing revealed only %d PoPs of a %d-PoP AS", len(pops), len(subject.PoPs))
	}
	for _, pt := range pops {
		ok := false
		for _, p := range subject.PoPs {
			if geo.DistanceKm(pt, p.City.Loc) < 1 {
				ok = true
				break
			}
		}
		if !ok {
			t.Errorf("targeted probe invented PoP at %v", pt)
		}
	}
}

func TestTargetedErrors(t *testing.T) {
	w, _ := setup(t)
	routing := bgp.ComputeRouting(w)
	if _, err := Targeted(w, routing, nil, 0); err == nil {
		t.Error("zero vantages accepted")
	}
	bad := map[astopo.ASN][]geo.Point{999999: {{Lat: 1, Lon: 1}}}
	if _, err := Targeted(w, routing, bad, 4); err == nil {
		t.Error("unknown AS accepted")
	}
}
