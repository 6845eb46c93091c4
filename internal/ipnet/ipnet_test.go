package ipnet

import (
	"testing"
	"testing/quick"
)

func TestAddrStringParse(t *testing.T) {
	cases := []struct {
		s string
		a Addr
	}{
		{"0.0.0.0", 0},
		{"1.2.3.4", MakeAddr(1, 2, 3, 4)},
		{"255.255.255.255", 0xFFFFFFFF},
		{"192.168.0.1", MakeAddr(192, 168, 0, 1)},
	}
	for _, c := range cases {
		got, err := ParseAddr(c.s)
		if err != nil || got != c.a {
			t.Errorf("ParseAddr(%q) = %v, %v", c.s, got, err)
		}
		if c.a.String() != c.s {
			t.Errorf("String(%v) = %q, want %q", c.a, c.a.String(), c.s)
		}
	}
}

func TestParseAddrErrors(t *testing.T) {
	for _, s := range []string{"", "1.2.3", "1.2.3.4.5", "256.0.0.1", "-1.0.0.0", "a.b.c.d", "01.2.3.4", "1.2.3.4/8"} {
		if _, err := ParseAddr(s); err == nil {
			t.Errorf("ParseAddr(%q) succeeded", s)
		}
	}
}

func TestParseAddrRoundTrip(t *testing.T) {
	f := func(v uint32) bool {
		a := Addr(v)
		got, err := ParseAddr(a.String())
		return err == nil && got == a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPrefixBasics(t *testing.T) {
	p, err := ParsePrefix("10.0.0.0/8")
	if err != nil {
		t.Fatal(err)
	}
	if !p.Contains(MakeAddr(10, 255, 1, 2)) {
		t.Error("10/8 should contain 10.255.1.2")
	}
	if p.Contains(MakeAddr(11, 0, 0, 0)) {
		t.Error("10/8 should not contain 11.0.0.0")
	}
	if p.NumAddrs() != 1<<24 {
		t.Errorf("NumAddrs = %d", p.NumAddrs())
	}
	if p.First() != MakeAddr(10, 0, 0, 0) || p.Last() != MakeAddr(10, 255, 255, 255) {
		t.Errorf("First/Last = %v/%v", p.First(), p.Last())
	}
	if p.String() != "10.0.0.0/8" {
		t.Errorf("String = %q", p.String())
	}
}

func TestParsePrefixErrors(t *testing.T) {
	for _, s := range []string{"", "10.0.0.0", "10.0.0.0/33", "10.0.0.0/-1", "10.0.0.1/8", "x/8"} {
		if _, err := ParsePrefix(s); err == nil {
			t.Errorf("ParsePrefix(%q) succeeded", s)
		}
	}
}

func TestMakePrefixCanonicalizes(t *testing.T) {
	p := MakePrefix(MakeAddr(10, 1, 2, 3), 8)
	if p.Addr != MakeAddr(10, 0, 0, 0) {
		t.Errorf("host bits not zeroed: %v", p)
	}
	zero := MakePrefix(MakeAddr(1, 2, 3, 4), 0)
	if zero.Addr != 0 || zero.NumAddrs() != 1<<32 {
		t.Errorf("/0 wrong: %v", zero)
	}
}

func TestOverlaps(t *testing.T) {
	a, _ := ParsePrefix("10.0.0.0/8")
	b, _ := ParsePrefix("10.1.0.0/16")
	c, _ := ParsePrefix("11.0.0.0/8")
	if !a.Overlaps(b) || !b.Overlaps(a) {
		t.Error("nested prefixes should overlap")
	}
	if a.Overlaps(c) || c.Overlaps(a) {
		t.Error("disjoint prefixes should not overlap")
	}
	if !a.Overlaps(a) {
		t.Error("prefix should overlap itself")
	}
}

func TestNth(t *testing.T) {
	p, _ := ParsePrefix("10.0.0.0/24")
	if p.Nth(0) != MakeAddr(10, 0, 0, 0) || p.Nth(255) != MakeAddr(10, 0, 0, 255) {
		t.Error("Nth endpoints wrong")
	}
	if p.Nth(256) != p.Nth(0) {
		t.Error("Nth should wrap within the prefix")
	}
}

func TestAllocatorDisjointAndUnreserved(t *testing.T) {
	al := NewAllocator()
	var prefixes []Prefix
	for i := 0; i < 200; i++ {
		bits := 14 + i%6
		p, err := al.Alloc(bits)
		if err != nil {
			t.Fatalf("alloc %d: %v", i, err)
		}
		if p.Addr&^(^Addr(0)<<(32-bits)) != 0 {
			t.Errorf("unaligned prefix %v", p)
		}
		prefixes = append(prefixes, p)
	}
	for i := range prefixes {
		for _, r := range reservedRanges {
			if prefixes[i].Overlaps(r) {
				t.Errorf("%v overlaps reserved %v", prefixes[i], r)
			}
		}
		for j := i + 1; j < len(prefixes); j++ {
			if prefixes[i].Overlaps(prefixes[j]) {
				t.Errorf("%v overlaps %v", prefixes[i], prefixes[j])
			}
		}
	}
}

func TestAllocatorSkipsReserved(t *testing.T) {
	al := NewAllocator()
	// Drain allocations until we pass 10/8; none may fall inside it.
	for i := 0; i < 40; i++ {
		p, err := al.Alloc(10)
		if err != nil {
			t.Fatal(err)
		}
		ten, _ := ParsePrefix("10.0.0.0/8")
		if p.Overlaps(ten) {
			t.Fatalf("allocated %v inside 10/8", p)
		}
	}
}

func TestAllocatorBounds(t *testing.T) {
	al := NewAllocator()
	if _, err := al.Alloc(7); err == nil {
		t.Error("Alloc(7) should fail")
	}
	if _, err := al.Alloc(31); err == nil {
		t.Error("Alloc(31) should fail")
	}
}

func TestOverlapsSymmetricProperty(t *testing.T) {
	f := func(a32, b32 uint32, aBitsSeed, bBitsSeed uint8) bool {
		a := MakePrefix(Addr(a32), int(aBitsSeed%33))
		b := MakePrefix(Addr(b32), int(bBitsSeed%33))
		return a.Overlaps(b) == b.Overlaps(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestContainsConsistentWithRange(t *testing.T) {
	f := func(a32, probe uint32, bitsSeed uint8) bool {
		p := MakePrefix(Addr(a32), int(bitsSeed%33))
		in := Addr(probe) >= p.First() && Addr(probe) <= p.Last()
		return p.Contains(Addr(probe)) == in
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
