package astopo

import (
	"math"
	"testing"

	"eyeballas/internal/gazetteer"
)

func genSmall(t *testing.T, seed uint64) *World {
	t.Helper()
	w, err := Generate(SmallConfig(seed))
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestGenerateDeterministic(t *testing.T) {
	w1 := genSmall(t, 42)
	w2 := genSmall(t, 42)
	if len(w1.ASNs()) != len(w2.ASNs()) {
		t.Fatalf("AS counts differ: %d vs %d", len(w1.ASNs()), len(w2.ASNs()))
	}
	for i, n := range w1.ASNs() {
		a1, a2 := w1.AS(n), w2.AS(w2.ASNs()[i])
		if a1.ASN != a2.ASN || a1.Name != a2.Name || a1.Customers != a2.Customers ||
			len(a1.PoPs) != len(a2.PoPs) {
			t.Fatalf("AS %d differs between runs: %+v vs %+v", n, a1, a2)
		}
	}
	if len(w1.Peerings()) != len(w2.Peerings()) {
		t.Error("peering counts differ")
	}
}

func TestGenerateSeedsDiffer(t *testing.T) {
	w1 := genSmall(t, 1)
	w2 := genSmall(t, 2)
	same := 0
	n := min(len(w1.ASNs()), len(w2.ASNs()))
	for i := 0; i < n; i++ {
		a1, a2 := w1.AS(w1.ASNs()[i]), w2.AS(w2.ASNs()[i])
		if a1.Customers == a2.Customers && len(a1.PoPs) == len(a2.PoPs) {
			same++
		}
	}
	if same == n {
		t.Error("different seeds produced identical worlds")
	}
}

func TestGenerateQuotas(t *testing.T) {
	w := genSmall(t, 3)
	s := w.Stats()
	cfg := SmallConfig(3)
	// The planted case study adds two Italian (EU) eyeballs on top of the
	// region quotas.
	extra := map[gazetteer.Region]int{gazetteer.EU: 2}
	for _, r := range []gazetteer.Region{gazetteer.NA, gazetteer.EU, gazetteer.AS} {
		want := cfg.EyeballsPerRegion[r] + extra[r]
		if s.ByRegion[r] != want {
			t.Errorf("region %s: %d eyeballs, want %d", r, s.ByRegion[r], want)
		}
	}
	if s.Tier1s != cfg.NTier1 {
		t.Errorf("tier1s = %d, want %d", s.Tier1s, cfg.NTier1)
	}
	if s.Transits == 0 || s.IXPs == 0 || s.Peerings == 0 {
		t.Errorf("missing substrate: %+v", s)
	}
}

func TestASInvariants(t *testing.T) {
	w := genSmall(t, 4)
	for _, a := range w.ASes() {
		if len(a.PoPs) == 0 {
			t.Errorf("AS %d (%s) has no PoPs", a.ASN, a.Name)
		}
		if len(a.Prefixes) == 0 {
			t.Errorf("AS %d has no prefixes", a.ASN)
		}
		if a.Kind == KindEyeball {
			if a.Customers < 1000 {
				t.Errorf("eyeball %d has %d customers", a.ASN, a.Customers)
			}
			// User-serving shares sum to 1.
			sum := 0.0
			users := 0
			for _, p := range a.PoPs {
				if p.ServesUsers {
					users++
					sum += p.Share
				} else if p.Share != 0 {
					t.Errorf("AS %d: infra PoP with share %v", a.ASN, p.Share)
				}
			}
			if users == 0 {
				t.Errorf("eyeball %d has no user-serving PoPs", a.ASN)
			}
			if math.Abs(sum-1) > 1e-9 {
				t.Errorf("AS %d shares sum to %v", a.ASN, sum)
			}
			// Level consistency: city-level user PoPs within one metro;
			// all user PoPs in home country.
			for _, p := range a.UserPoPs() {
				if p.City.Country != a.Country {
					t.Errorf("AS %d (%s): user PoP in %s", a.ASN, a.Country, p.City.Country)
				}
			}
			if a.Level == LevelState {
				st := a.UserPoPs()[0].City.State
				for _, p := range a.UserPoPs() {
					if p.City.State != st {
						t.Errorf("state-level AS %d spans states %s and %s", a.ASN, st, p.City.State)
					}
				}
			}
		}
	}
}

func TestPrefixesDisjoint(t *testing.T) {
	w := genSmall(t, 5)
	type owned struct {
		asn ASN
		p   string
	}
	seen := map[string]ASN{}
	for _, a := range w.ASes() {
		for _, p := range a.Prefixes {
			if prev, dup := seen[p.String()]; dup {
				t.Fatalf("prefix %v owned by both %d and %d", p, prev, a.ASN)
			}
			seen[p.String()] = a.ASN
		}
	}
}

func TestProviderGraphAcyclicToTier1(t *testing.T) {
	// Following provider links upward from any AS must reach a tier-1
	// without revisiting a node (no provider cycles).
	w := genSmall(t, 6)
	for _, a := range w.ASes() {
		if a.Kind == KindTier1 {
			if len(w.Providers(a.ASN)) != 0 {
				t.Errorf("tier-1 %d has providers", a.ASN)
			}
			continue
		}
		// BFS up.
		visited := map[ASN]bool{a.ASN: true}
		frontier := []ASN{a.ASN}
		reached := false
		for len(frontier) > 0 && !reached {
			var next []ASN
			for _, n := range frontier {
				for _, p := range w.Providers(n) {
					if w.AS(p).Kind == KindTier1 {
						reached = true
					}
					if !visited[p] {
						visited[p] = true
						next = append(next, p)
					}
				}
			}
			frontier = next
		}
		if !reached {
			t.Errorf("AS %d cannot reach a tier-1 via providers", a.ASN)
		}
	}
}

func TestPeeringInvariants(t *testing.T) {
	w := genSmall(t, 7)
	for _, p := range w.Peerings() {
		if p.A == p.B {
			t.Fatalf("self peering %v", p)
		}
		if p.A > p.B {
			t.Fatalf("unnormalized peering %v", p)
		}
		if w.AS(p.A) == nil || w.AS(p.B) == nil {
			t.Fatalf("peering with unknown AS %v", p)
		}
		if p.IXP != 0 {
			if !w.MemberOf(p.IXP, p.A) || !w.MemberOf(p.IXP, p.B) {
				t.Errorf("peering %v at IXP lacking membership", p)
			}
		}
		// No peering between customer and provider.
		for _, pr := range w.Providers(p.A) {
			if pr == p.B {
				t.Errorf("peering %v duplicates provider link", p)
			}
		}
	}
}

func TestIXPMembersExist(t *testing.T) {
	w := genSmall(t, 8)
	for _, ix := range w.IXPs() {
		seen := map[ASN]bool{}
		for _, m := range ix.Members {
			if w.AS(m) == nil {
				t.Errorf("IXP %s has unknown member %d", ix.Name, m)
			}
			if seen[m] {
				t.Errorf("IXP %s lists member %d twice", ix.Name, m)
			}
			seen[m] = true
		}
	}
}

func TestCaseStudyPlanted(t *testing.T) {
	w := genSmall(t, 9)
	cs := w.CaseStudy()
	if cs == nil {
		t.Fatal("case study not planted")
	}
	subject := w.AS(cs.Subject)
	if subject == nil || subject.Level != LevelCity || subject.Country != "IT" {
		t.Fatalf("subject AS malformed: %+v", subject)
	}
	if subject.Customers != 3000 {
		t.Errorf("subject customers = %d, want 3000", subject.Customers)
	}
	if len(subject.PoPs) != 1 || subject.PoPs[0].City.Name != "Rome" {
		t.Errorf("subject PoPs = %+v", subject.PoPs)
	}
	provs := w.Providers(cs.Subject)
	if len(provs) != 5 {
		t.Fatalf("subject has %d providers, want 5", len(provs))
	}
	want := map[ASN]bool{cs.NationalISP: true, cs.SecondNational: true, cs.GlobalA: true, cs.GlobalB: true, cs.Legacy: true}
	for _, p := range provs {
		if !want[p] {
			t.Errorf("unexpected provider %d", p)
		}
	}
	// Remote-IXP-only membership.
	if w.MemberOf(cs.LocalIXP, cs.Subject) {
		t.Error("subject is a member of the local IXP; the §6 point is that it is not")
	}
	if !w.MemberOf(cs.RemoteIXP, cs.Subject) {
		t.Error("subject is not a member of the remote IXP")
	}
	// The two Milan-only peers are not at the local IXP (paper: ASDASD
	// and ITGate are not NaMEX members).
	if w.MemberOf(cs.LocalIXP, cs.PeerB) || w.MemberOf(cs.LocalIXP, cs.PeerC) {
		t.Error("Milan-only peers are members of the local IXP")
	}
	if !w.MemberOf(cs.LocalIXP, cs.Academic) || !w.MemberOf(cs.RemoteIXP, cs.Academic) {
		t.Error("academic peer should be at both IXPs")
	}
	// Three peerings at the remote IXP.
	peers := 0
	for _, p := range w.Peers(cs.Subject) {
		if p.IXP == cs.RemoteIXP {
			peers++
		}
	}
	if peers != 3 {
		t.Errorf("subject has %d remote-IXP peerings, want 3", peers)
	}
	// The national ISP covers Rome among its PoPs.
	if !hasPoPIn(w.AS(cs.NationalISP), subject.PoPs[0].City) {
		t.Error("national ISP has no Rome PoP")
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.EyeballsPerRegion = nil },
		func(c *Config) { c.NTier1 = 1 },
		func(c *Config) { c.CustomerMin = 0 },
		func(c *Config) { c.CustomerCap = 10 },
	}
	for i, mutate := range bad {
		cfg := SmallConfig(1)
		mutate(&cfg)
		if _, err := Generate(cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestStats(t *testing.T) {
	w := genSmall(t, 11)
	s := w.Stats()
	if s.ASes != len(w.ASNs()) {
		t.Errorf("Stats.ASes = %d, want %d", s.ASes, len(w.ASNs()))
	}
	sum := s.Eyeballs + s.Transits + s.Tier1s + s.Contents
	if sum != s.ASes {
		t.Errorf("kind counts %d != total %d", sum, s.ASes)
	}
	if s.ProviderLinks == 0 {
		t.Error("no provider links")
	}
}

func TestPublishersExist(t *testing.T) {
	// The §5 reference dataset needs publishing ASes; with ~60 eyeballs
	// and publishProb≈0.067·3 on non-city ASes this can be sparse, so use
	// the default config scaled check over several seeds.
	total := 0
	for seed := uint64(0); seed < 3; seed++ {
		w := genSmall(t, seed)
		for _, a := range w.Eyeballs() {
			if a.PublishesPoPs {
				total++
				if a.Level == LevelCity {
					t.Errorf("city-level AS %d publishes PoPs", a.ASN)
				}
			}
		}
	}
	if total == 0 {
		t.Error("no publishing ASes in 3 small worlds")
	}
}

func TestLevelMixShape(t *testing.T) {
	// With the default Table 1 mix, Europe must be country-heavy and Asia
	// city-heavy. Use a bigger world for stable proportions.
	cfg := DefaultConfig(12)
	cfg.EyeballsPerRegion = map[gazetteer.Region]int{gazetteer.EU: 120, gazetteer.AS: 120, gazetteer.NA: 120}
	cfg.ContentPerRegion = nil
	w, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	count := func(r gazetteer.Region, l Level) int {
		n := 0
		for _, a := range w.Eyeballs() {
			if a.Region == r && a.Level == l {
				n++
			}
		}
		return n
	}
	if count(gazetteer.EU, LevelCountry) <= count(gazetteer.EU, LevelCity) {
		t.Error("EU should be country-heavy")
	}
	if count(gazetteer.AS, LevelCity) <= count(gazetteer.AS, LevelState) {
		t.Error("AS should have more city than state level")
	}
	if count(gazetteer.NA, LevelState) <= count(gazetteer.NA, LevelCity) {
		t.Error("NA should be state-heavy")
	}
}

func TestPaperConfigValid(t *testing.T) {
	cfg := PaperConfig(1)
	if err := cfg.validate(); err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, n := range cfg.EyeballsPerRegion {
		total += n
	}
	if total != 1233 {
		t.Errorf("paper config totals %d eyeballs, want 1233", total)
	}
	if cfg.EyeballsPerRegion[gazetteer.NA] != 327 ||
		cfg.EyeballsPerRegion[gazetteer.EU] != 428 ||
		cfg.EyeballsPerRegion[gazetteer.AS] != 286 {
		t.Errorf("paper config regional quotas wrong: %v", cfg.EyeballsPerRegion)
	}
}
