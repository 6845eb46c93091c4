package experiments

import (
	"strings"
	"sync"
	"testing"

	"eyeballas/internal/astopo"
	"eyeballas/internal/gazetteer"
	"eyeballas/internal/p2p"
)

var shared struct {
	once sync.Once
	env  *Env
	err  error
}

func sharedEnv(t *testing.T) *Env {
	t.Helper()
	shared.once.Do(func() {
		shared.env, shared.err = NewEnv(111, ScaleSmall)
	})
	if shared.err != nil {
		t.Fatal(shared.err)
	}
	return shared.env
}

func TestNewEnvComplete(t *testing.T) {
	env := sharedEnv(t)
	if env.World == nil || env.Routing == nil || env.Dataset == nil ||
		env.Reference == nil || env.IXPData == nil {
		t.Fatal("environment incomplete")
	}
	if len(env.Traces) == 0 {
		t.Fatal("no traceroutes")
	}
	if len(env.Dataset.Order) == 0 {
		t.Fatal("empty target dataset")
	}
}

func TestTable1Shape(t *testing.T) {
	env := sharedEnv(t)
	tbl := RunTable1(env)
	if tbl.TotalASes == 0 || tbl.TotalPeers == 0 {
		t.Fatalf("empty table: %+v", tbl)
	}
	// The paper's regional asymmetry: Kad dominates EU and AS peers;
	// Gnutella dominates NA.
	if tbl.Peers[gazetteer.EU][p2p.Kad] <= tbl.Peers[gazetteer.EU][p2p.Gnutella] {
		t.Error("EU should be Kad-dominated")
	}
	if tbl.Peers[gazetteer.NA][p2p.Gnutella] <= tbl.Peers[gazetteer.NA][p2p.Kad] {
		t.Error("NA should be Gnutella-dominated")
	}
	out := tbl.Render()
	for _, want := range []string{"Table 1", "NA", "EU", "AS", "City", "Country"} {
		if !strings.Contains(out, want) {
			t.Errorf("render lacks %q:\n%s", want, out)
		}
	}
	csv := tbl.CSV()
	if len(strings.Split(strings.TrimSpace(csv), "\n")) != 4 {
		t.Errorf("CSV should have header + 3 rows:\n%s", csv)
	}
}

func TestFigure1(t *testing.T) {
	env := sharedEnv(t)
	f, err := RunFigure1(env, nil)
	if err != nil {
		t.Fatal(err)
	}
	if f.NSamples == 0 {
		t.Fatal("no samples for Figure 1 subject")
	}
	// The paper's multi-resolution claim: PoP count is non-increasing in
	// bandwidth (more smoothing merges peaks).
	n20 := len(f.Footprints[20].PoPs)
	n40 := len(f.Footprints[40].PoPs)
	n60 := len(f.Footprints[60].PoPs)
	if n20 < n40 || n40 < n60 {
		t.Errorf("PoP counts not non-increasing with bandwidth: %d, %d, %d", n20, n40, n60)
	}
	if n40 == 0 {
		t.Error("no PoPs at 40 km")
	}
	out := f.Render()
	if !strings.Contains(out, "Figure 1") || !strings.Contains(out, "bandwidth 40") {
		t.Errorf("render malformed:\n%s", out[:min(400, len(out))])
	}
}

func TestFigure2AndSection5(t *testing.T) {
	env := sharedEnv(t)
	f2, err := RunFigure2(env, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(f2.ASNs) == 0 {
		t.Fatal("no validation ASes")
	}
	// Shape 1: smaller bandwidth discovers more PoPs per AS (paper:
	// 31.9 / 13.6 / 7.3 at 10/40/80 km).
	if !(f2.MeanDiscovered[10] > f2.MeanDiscovered[40] && f2.MeanDiscovered[40] > f2.MeanDiscovered[80]) {
		t.Errorf("mean discovered not decreasing in bandwidth: %v", f2.MeanDiscovered)
	}
	// Shape 2: larger bandwidth gives a more reliable (higher precision)
	// set: perfect-match fraction increases with bandwidth (paper:
	// 5% / 41% / 60%).
	// At small scale (a dozen validation ASes) adjacent bandwidths can
	// tie; require monotone non-decreasing with a strict overall rise.
	if f2.PerfectMatchFrac[80] < f2.PerfectMatchFrac[40] ||
		f2.PerfectMatchFrac[40] < f2.PerfectMatchFrac[10] ||
		f2.PerfectMatchFrac[80] <= f2.PerfectMatchFrac[10] {
		t.Errorf("perfect-match fraction not increasing in bandwidth: %v", f2.PerfectMatchFrac)
	}
	// Shape 3: published lists are longer than what KDE resolves at
	// 40 km (paper: 43.7 vs 13.6).
	if f2.MeanReference <= f2.MeanDiscovered[40] {
		t.Errorf("reference lists (%.1f) should exceed discovered at 40 km (%.1f)",
			f2.MeanReference, f2.MeanDiscovered[40])
	}
	// Shape 4: recall is higher at smaller bandwidth (Figure 2a: lower
	// bandwidth maps more ground-truth PoPs). Compare means.
	if mean(f2.RefMatchedPct[10]) <= mean(f2.RefMatchedPct[80]) {
		t.Errorf("recall at 10 km (%.1f) should exceed recall at 80 km (%.1f)",
			mean(f2.RefMatchedPct[10]), mean(f2.RefMatchedPct[80]))
	}

	s5 := RunSection5(f2)
	out := s5.Render()
	if !strings.Contains(out, "paper: 43.7") || !strings.Contains(out, "paper: 13.6") {
		t.Errorf("section 5 render lacks paper columns:\n%s", out)
	}
	if !strings.Contains(f2.Render(), "(a) CDF") {
		t.Error("figure 2 render lacks panel (a)")
	}
	csv := f2.CSV()
	if !strings.HasPrefix(csv, "asn,bandwidth_km") {
		t.Error("CSV header wrong")
	}
}

func TestDIMESComparison(t *testing.T) {
	env := sharedEnv(t)
	d, err := RunDIMES(env)
	if err != nil {
		t.Fatal(err)
	}
	if d.CommonASes == 0 {
		t.Fatal("no common ASes")
	}
	// The §5 shape: KDE finds several times more PoPs per AS than the
	// vantage-limited traceroute baseline (paper: 7.14 vs 1.54).
	if d.OurMeanPoPs <= d.DIMESMeanPoPs {
		t.Errorf("KDE (%.2f) should beat traceroute (%.2f)", d.OurMeanPoPs, d.DIMESMeanPoPs)
	}
	if d.OurMeanPoPs < 1.5*d.DIMESMeanPoPs {
		t.Errorf("KDE/traceroute ratio %.2f too small; paper's is ~4.6", d.OurMeanPoPs/d.DIMESMeanPoPs)
	}
	// Superset for a solid majority (paper: 80%).
	if d.SupersetFrac < 0.5 {
		t.Errorf("superset fraction %.2f < 0.5", d.SupersetFrac)
	}
	if !strings.Contains(d.Render(), "paper: 7.14") {
		t.Error("render lacks paper comparison")
	}
}

func TestCaseStudy(t *testing.T) {
	env := sharedEnv(t)
	cs, err := RunCaseStudy(env)
	if err != nil {
		t.Fatal(err)
	}
	if cs.Class.Level != astopo.LevelCity {
		t.Errorf("subject classified %v, want city", cs.Class.Level)
	}
	if len(cs.PoPCities) != 1 || cs.PoPCities[0] != "Rome" {
		t.Errorf("subject PoP cities = %v, want [Rome]", cs.PoPCities)
	}
	// The §6 surprise: five upstreams against an expectation of <= 2.
	if len(cs.ActualUpstreams) != 5 {
		t.Errorf("actual upstreams = %v, want 5", cs.ActualUpstreams)
	}
	// BGP best paths reveal only a subset of provider links (the
	// (in)completeness the paper cites); the inference must recover at
	// least the primary providers and never invent one.
	if len(cs.InferredUpstreams) < 2 {
		t.Errorf("inference recovered only %v", cs.InferredUpstreams)
	}
	actualSet := map[string]bool{}
	for _, u := range cs.ActualUpstreams {
		actualSet[u] = true
	}
	for _, u := range cs.InferredUpstreams {
		if !actualSet[u] {
			t.Errorf("inference invented upstream %q", u)
		}
	}
	if cs.MemberOfLocalIXP {
		t.Error("subject should not be at the local IXP")
	}
	if !cs.MemberOfRemoteIXP {
		t.Error("subject should be at the remote IXP")
	}
	if len(cs.RemotePeers) != 3 {
		t.Errorf("remote peers = %v, want 3", cs.RemotePeers)
	}
	alsoLocal := 0
	for _, b := range cs.RemotePeersAlsoLocal {
		if b {
			alsoLocal++
		}
	}
	if alsoLocal != 1 {
		t.Errorf("%d remote peers also local, want exactly 1 (the academic network)", alsoLocal)
	}
	out := cs.Render()
	for _, want := range []string{"case study", "expectation", "Verdict", "remote-over-local peering: true"} {
		if !strings.Contains(out, want) {
			t.Errorf("render lacks %q", want)
		}
	}
}

func TestNewEnvBadScale(t *testing.T) {
	if _, err := NewEnv(1, Scale(99)); err == nil {
		t.Error("unknown scale accepted")
	}
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
