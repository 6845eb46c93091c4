package ixp

import (
	"testing"

	"eyeballas/internal/astopo"
)

func build(t *testing.T) (*astopo.World, *Dataset) {
	t.Helper()
	w, err := astopo.Generate(astopo.SmallConfig(91))
	if err != nil {
		t.Fatal(err)
	}
	return w, Build(w)
}

func TestMembershipComplete(t *testing.T) {
	w, d := build(t)
	for _, x := range w.IXPs() {
		if len(d.Members[x.ID]) != len(x.Members) {
			t.Errorf("IXP %s: %d members in dataset, %d in truth", x.Name, len(d.Members[x.ID]), len(x.Members))
		}
		for _, m := range x.Members {
			if !d.MemberOf(x.ID, m) {
				t.Errorf("IXP %s member %d missing", x.Name, m)
			}
		}
		// Sorted.
		ms := d.Members[x.ID]
		for i := 1; i < len(ms); i++ {
			if ms[i] <= ms[i-1] {
				t.Fatalf("members not sorted for %s", x.Name)
			}
		}
	}
}

func TestFullDetection(t *testing.T) {
	w, d := build(t)
	wantIXP := 0
	for _, p := range w.Peerings() {
		if p.IXP != 0 {
			wantIXP++
		}
	}
	if len(d.Peerings) != wantIXP {
		t.Errorf("observed %d of %d IXP peerings", len(d.Peerings), wantIXP)
	}
	for _, p := range d.Peerings {
		if p.IXP == 0 {
			t.Fatal("private peering leaked into IXP dataset")
		}
	}
}

func TestCaseStudyQueries(t *testing.T) {
	w, d := build(t)
	cs := w.CaseStudy()
	if !d.MemberOf(cs.RemoteIXP, cs.Subject) {
		t.Error("subject missing from remote IXP membership")
	}
	if d.MemberOf(cs.LocalIXP, cs.Subject) {
		t.Error("subject wrongly at the local IXP")
	}
	ixps := d.IXPsOf(cs.Subject)
	found := false
	for _, id := range ixps {
		if id == cs.RemoteIXP {
			found = true
		}
		if id == cs.LocalIXP {
			t.Error("IXPsOf lists the local IXP")
		}
	}
	if !found {
		t.Error("IXPsOf misses the remote IXP")
	}
	peers := d.PeersAt(cs.Subject, cs.RemoteIXP)
	if len(peers) != 3 {
		t.Fatalf("subject peers at remote IXP = %v, want 3", peers)
	}
	want := map[astopo.ASN]bool{cs.Academic: true, cs.PeerB: true, cs.PeerC: true}
	for _, p := range peers {
		if !want[p] {
			t.Errorf("unexpected peer %d", p)
		}
	}
	if got := d.PeersAt(cs.Subject, cs.LocalIXP); len(got) != 0 {
		t.Errorf("subject peers at local IXP = %v, want none", got)
	}
}
