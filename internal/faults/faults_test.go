package faults

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func TestNilSafety(t *testing.T) {
	var p *Plan
	if p.Enabled() || p.Rate(GeoMiss) != 0 || p.Seed() != 0 || p.String() != "" {
		t.Error("nil plan is not a no-op")
	}
	if inj := p.Injector(GeoMiss); inj != nil {
		t.Error("nil plan produced a non-nil injector")
	}
	var in *Injector
	if in.Hit(1) || in.Hit2(1, 2) || in.Rand(1) != 0 {
		t.Error("nil injector is not a no-op")
	}
}

func TestZeroRateInjectorIsNil(t *testing.T) {
	p := NewPlan(1)
	if err := p.Set(GeoMiss, 0); err != nil {
		t.Fatal(err)
	}
	if inj := p.Injector(GeoMiss); inj != nil {
		t.Error("zero-rate point produced a non-nil injector")
	}
	if p.Enabled() {
		t.Error("all-zero plan reports Enabled")
	}
}

func TestSetValidation(t *testing.T) {
	p := NewPlan(1)
	if err := p.Set("no-such-point", 0.5); err == nil {
		t.Error("unknown point accepted")
	}
	for _, bad := range []float64{-0.1, 1.5, math.NaN()} {
		if err := p.Set(GeoMiss, bad); err == nil {
			t.Errorf("rate %v accepted", bad)
		}
	}
	if err := p.Set(GeoMiss, 1); err != nil {
		t.Errorf("rate 1 rejected: %v", err)
	}
}

func TestHitDeterministicAndSeedSensitive(t *testing.T) {
	mk := func(seed uint64) *Injector {
		p := NewPlan(seed)
		if err := p.Set(GeoMiss, 0.5); err != nil {
			t.Fatal(err)
		}
		return p.Injector(GeoMiss)
	}
	a1, a2, b := mk(7), mk(7), mk(8)
	sameAsA, sameAsB := 0, 0
	const n = 4096
	for site := uint64(0); site < n; site++ {
		if a1.Hit(site) != a2.Hit(site) {
			t.Fatalf("same seed disagrees at site %d", site)
		}
		if a1.Hit(site) == b.Hit(site) {
			sameAsB++
		}
		_ = sameAsA
	}
	// Different seeds must decorrelate: agreement should be ~50%, not ~100%.
	if sameAsB > n*3/4 {
		t.Errorf("seeds 7 and 8 agree on %d/%d sites — streams not independent", sameAsB, n)
	}
}

func TestHitRate(t *testing.T) {
	for _, rate := range []float64{0.05, 0.5, 0.95} {
		p := NewPlan(99)
		if err := p.Set(OriginMiss, rate); err != nil {
			t.Fatal(err)
		}
		inj := p.Injector(OriginMiss)
		const n = 100000
		hits := 0
		for site := uint64(0); site < n; site++ {
			if inj.Hit(site) {
				hits++
			}
		}
		got := float64(hits) / n
		if math.Abs(got-rate) > 0.01 {
			t.Errorf("rate %v: observed %v over %d sites", rate, got, n)
		}
	}
}

func TestPointsIndependent(t *testing.T) {
	p := NewPlan(3)
	for _, pt := range []Point{GeoMiss, OriginMiss} {
		if err := p.Set(pt, 0.5); err != nil {
			t.Fatal(err)
		}
	}
	a, b := p.Injector(GeoMiss), p.Injector(OriginMiss)
	agree := 0
	const n = 4096
	for site := uint64(0); site < n; site++ {
		if a.Hit(site) == b.Hit(site) {
			agree++
		}
	}
	if agree > n*3/4 {
		t.Errorf("geo-miss and origin-miss agree on %d/%d sites — points not independent", agree, n)
	}
}

func TestHit2SaltMatters(t *testing.T) {
	p := NewPlan(5)
	if err := p.Set(CrawlLoss, 0.5); err != nil {
		t.Fatal(err)
	}
	inj := p.Injector(CrawlLoss)
	agree := 0
	const n = 4096
	for site := uint64(0); site < n; site++ {
		if inj.Hit2(site, 0) == inj.Hit2(site, 1) {
			agree++
		}
	}
	if agree > n*3/4 {
		t.Errorf("salts 0 and 1 agree on %d/%d sites", agree, n)
	}
}

func TestParseSpecRoundTrip(t *testing.T) {
	p, err := ParseSpec(" geo-miss=0.05, origin-miss=0.01 ,worker-panic=0.001", 42)
	if err != nil {
		t.Fatal(err)
	}
	if p.Rate(GeoMiss) != 0.05 || p.Rate(OriginMiss) != 0.01 || p.Rate(WorkerPanic) != 0.001 {
		t.Fatalf("rates wrong: %v", p)
	}
	if p.Seed() != 42 {
		t.Fatalf("seed = %d", p.Seed())
	}
	spec := p.String()
	q, err := ParseSpec(spec, 42)
	if err != nil {
		t.Fatalf("reparse of %q: %v", spec, err)
	}
	if q.String() != spec {
		t.Errorf("round trip: %q -> %q", spec, q.String())
	}
}

func TestParseSpecEmpty(t *testing.T) {
	for _, s := range []string{"", "   "} {
		p, err := ParseSpec(s, 1)
		if err != nil || p != nil {
			t.Errorf("ParseSpec(%q) = %v, %v; want nil, nil", s, p, err)
		}
	}
}

func TestParseSpecErrors(t *testing.T) {
	for _, s := range []string{
		"geo-miss",           // no '='
		"geo-miss=",          // empty rate
		"geo-miss=abc",       // non-numeric rate
		"geo-miss=2",         // out of range
		"geo-miss=-0.1",      // negative
		"nonsense=0.5",       // unknown point
		"geo-miss=0.1,=0.2",  // empty point
		"geo-miss=0.1,x=y=z", // garbage entry
	} {
		if _, err := ParseSpec(s, 1); err == nil {
			t.Errorf("ParseSpec(%q) accepted", s)
		}
	}
}

func TestMangleLinesZeroInjectorsCopies(t *testing.T) {
	in := "# header entries=2\n1.2.3.0/24|1 2 3\n4.5.6.0/24|7\n"
	var out bytes.Buffer
	st, err := MangleLines(&out, strings.NewReader(in), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.String() != in {
		t.Errorf("nil injectors changed the stream:\n%q\n%q", in, out.String())
	}
	if st.Lines != 3 || st.Corrupted != 0 || st.Truncated {
		t.Errorf("stats = %+v", st)
	}
}

func TestMangleLinesTruncates(t *testing.T) {
	p := NewPlan(11)
	if err := p.Set(RIBTruncate, 0.2); err != nil {
		t.Fatal(err)
	}
	var in strings.Builder
	in.WriteString("# hdr\n")
	for i := 0; i < 100; i++ {
		in.WriteString("1.2.3.0/24|1\n")
	}
	var out bytes.Buffer
	st, err := MangleLines(&out, strings.NewReader(in.String()), p.Injector(RIBTruncate), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Truncated {
		t.Fatal("0.2 truncate rate never fired over 101 lines")
	}
	if st.Lines >= 101 {
		t.Errorf("truncated stream kept all %d lines", st.Lines)
	}
	// Deterministic: same plan, same input, same cut point.
	var out2 bytes.Buffer
	st2, err := MangleLines(&out2, strings.NewReader(in.String()), p.Injector(RIBTruncate), nil)
	if err != nil {
		t.Fatal(err)
	}
	if st2 != st || !bytes.Equal(out.Bytes(), out2.Bytes()) {
		t.Error("mangling not deterministic")
	}
}

func TestMangleLinesCorruptsBodyNotHeader(t *testing.T) {
	p := NewPlan(13)
	if err := p.Set(RIBCorrupt, 1); err != nil { // corrupt every body line
		t.Fatal(err)
	}
	in := "# header entries=3\n1.2.3.0/24|1 2\n4.5.6.0/24|7\n8.9.0.0/16|9 9\n"
	var out bytes.Buffer
	st, err := MangleLines(&out, strings.NewReader(in), nil, p.Injector(RIBCorrupt))
	if err != nil {
		t.Fatal(err)
	}
	if st.Corrupted != 3 {
		t.Errorf("corrupted %d of 3 body lines", st.Corrupted)
	}
	lines := strings.Split(out.String(), "\n")
	if lines[0] != "# header entries=3" {
		t.Errorf("header was mangled: %q", lines[0])
	}
}
