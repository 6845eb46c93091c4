package p2p

import (
	"context"
	"testing"

	"eyeballas/internal/astopo"
	"eyeballas/internal/gazetteer"
	"eyeballas/internal/rng"
)

func crawlWorld(t *testing.T, seed uint64) (*astopo.World, *Crawl) {
	t.Helper()
	w, err := astopo.Generate(astopo.SmallConfig(seed))
	if err != nil {
		t.Fatal(err)
	}
	c, err := Run(context.Background(), w, DefaultConfig(), rng.New(seed).Split("p2p"))
	if err != nil {
		t.Fatal(err)
	}
	return w, c
}

func TestRunProducesPeers(t *testing.T) {
	w, c := crawlWorld(t, 41)
	if len(c.Peers) < 1000 {
		t.Fatalf("only %d peers", len(c.Peers))
	}
	for _, app := range Apps {
		if c.ByApp[app] == 0 {
			t.Errorf("no %s peers", app)
		}
	}
	// Peers belong to real ASes with customers and sit inside their AS's
	// prefixes.
	for i, p := range c.Peers {
		if i > 500 {
			break
		}
		a := w.AS(p.TrueASN)
		if a == nil || a.Customers == 0 {
			t.Fatalf("peer %d from non-eyeball AS %d", i, p.TrueASN)
		}
		inside := false
		for _, pre := range a.Prefixes {
			if pre.Contains(p.IP) {
				inside = true
				break
			}
		}
		if !inside {
			t.Fatalf("peer IP %v outside AS %d prefixes", p.IP, p.TrueASN)
		}
		if !p.TrueLoc.Valid() {
			t.Fatalf("peer with invalid location")
		}
	}
}

func TestRunDeterministic(t *testing.T) {
	_, c1 := crawlWorld(t, 42)
	_, c2 := crawlWorld(t, 42)
	if len(c1.Peers) != len(c2.Peers) {
		t.Fatalf("peer counts differ: %d vs %d", len(c1.Peers), len(c2.Peers))
	}
	for i := range c1.Peers {
		if c1.Peers[i] != c2.Peers[i] {
			t.Fatalf("peer %d differs", i)
		}
	}
}

func TestRegionalAppAsymmetry(t *testing.T) {
	// The Table 1 shape: Kad dominates EU and AS; Gnutella dominates NA.
	w, c := crawlWorld(t, 43)
	counts := map[gazetteer.Region]map[App]int{}
	for _, p := range c.Peers {
		r := w.AS(p.TrueASN).Region
		if counts[r] == nil {
			counts[r] = map[App]int{}
		}
		counts[r][p.App]++
	}
	if counts[gazetteer.EU][Kad] <= counts[gazetteer.EU][Gnutella] {
		t.Errorf("EU: kad %d <= gnutella %d", counts[gazetteer.EU][Kad], counts[gazetteer.EU][Gnutella])
	}
	if counts[gazetteer.AS][Kad] <= counts[gazetteer.AS][Gnutella] {
		t.Errorf("AS: kad %d <= gnutella %d", counts[gazetteer.AS][Kad], counts[gazetteer.AS][Gnutella])
	}
	if counts[gazetteer.NA][Gnutella] <= counts[gazetteer.NA][Kad] {
		t.Errorf("NA: gnutella %d <= kad %d", counts[gazetteer.NA][Gnutella], counts[gazetteer.NA][Kad])
	}
}

func TestUniqueIPsPerASApp(t *testing.T) {
	_, c := crawlWorld(t, 44)
	type key struct {
		asn astopo.ASN
		app App
		ip  string
	}
	seen := map[key]bool{}
	for _, p := range c.Peers {
		k := key{p.TrueASN, p.App, p.IP.String()}
		if seen[k] {
			t.Fatalf("duplicate peer %v", k)
		}
		seen[k] = true
	}
}

func TestCoverageIsPartial(t *testing.T) {
	// No AS should have more observed peers for an app than
	// customers × penetration × scale × 1.8 (coverage can exceed 1 only
	// modestly through the BT burst model).
	w, c := crawlWorld(t, 45)
	cfg := DefaultConfig()
	perASApp := map[astopo.ASN]map[App]int{}
	for _, p := range c.Peers {
		if perASApp[p.TrueASN] == nil {
			perASApp[p.TrueASN] = map[App]int{}
		}
		perASApp[p.TrueASN][p.App]++
	}
	for asn, apps := range perASApp {
		a := w.AS(asn)
		for app, n := range apps {
			expected := float64(a.Customers) * penetration[app][a.Region] * cfg.Scale
			if float64(n) > expected*1.8+20 {
				t.Errorf("AS %d %s: observed %d >> expected %.0f", asn, app, n, expected)
			}
		}
	}
}

func TestCaseStudySubjectObserved(t *testing.T) {
	w, c := crawlWorld(t, 46)
	cs := w.CaseStudy()
	n := 0
	for _, p := range c.Peers {
		if p.TrueASN == cs.Subject {
			n++
		}
	}
	// ~3000 customers × (0.14+0.02+0.02) × 0.5 ≈ 240 expected.
	if n < 50 {
		t.Errorf("case-study subject observed only %d times", n)
	}
}

func TestConfigValidation(t *testing.T) {
	w, _ := crawlWorld(t, 47)
	src := rng.New(1)
	bad := []Config{
		{},
		{Scale: -1},
	}
	for i, cfg := range bad {
		if _, err := Run(context.Background(), w, cfg, src); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestAppString(t *testing.T) {
	if Kad.String() != "kad" || Gnutella.String() != "gnutella" || BitTorrent.String() != "bittorrent" {
		t.Error("app names wrong")
	}
	if App(99).String() == "" {
		t.Error("unknown app should still render")
	}
}
