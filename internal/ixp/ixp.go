// Package ixp materializes the IXP-mapping dataset the paper's §6 case
// study consults (Augustin, Krishnamurthy, Willinger: "IXPs: Mapped?").
// The paper consults that dataset as best-effort ground truth, so every
// exchange's membership list and every IXP peering of the ground-truth
// world is observed; private peerings are invisible to it.
package ixp

import (
	"sort"

	"eyeballas/internal/astopo"
)

// Dataset is the observed IXP substrate.
type Dataset struct {
	// Members lists each exchange's member ASes, ascending.
	Members map[astopo.IXPID][]astopo.ASN
	// Peerings are the IXP peerings.
	Peerings []astopo.Peering

	memberSet map[astopo.IXPID]map[astopo.ASN]bool
	peersOf   map[astopo.ASN][]astopo.Peering
}

// Build observes the world's exchanges: their members and their
// peerings.
func Build(w *astopo.World) *Dataset {
	d := &Dataset{
		Members:   make(map[astopo.IXPID][]astopo.ASN),
		memberSet: make(map[astopo.IXPID]map[astopo.ASN]bool),
		peersOf:   make(map[astopo.ASN][]astopo.Peering),
	}
	for _, x := range w.IXPs() {
		members := append([]astopo.ASN(nil), x.Members...)
		sort.Slice(members, func(i, j int) bool { return members[i] < members[j] })
		d.Members[x.ID] = members
		set := make(map[astopo.ASN]bool, len(members))
		for _, m := range members {
			set[m] = true
		}
		d.memberSet[x.ID] = set
	}
	for _, p := range w.Peerings() {
		if p.IXP == 0 {
			continue // private peerings are invisible to IXP mapping
		}
		d.Peerings = append(d.Peerings, p)
		d.peersOf[p.A] = append(d.peersOf[p.A], p)
		d.peersOf[p.B] = append(d.peersOf[p.B], p)
	}
	return d
}

// MemberOf reports whether the AS appears in the exchange's member list.
func (d *Dataset) MemberOf(id astopo.IXPID, a astopo.ASN) bool {
	return d.memberSet[id][a]
}

// IXPsOf returns the exchanges the AS is a member of, ascending.
func (d *Dataset) IXPsOf(a astopo.ASN) []astopo.IXPID {
	var out []astopo.IXPID
	for id, set := range d.memberSet {
		if set[a] {
			out = append(out, id)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// PeersAt returns the ASes the given AS peers with at the given
// exchange, ascending.
func (d *Dataset) PeersAt(a astopo.ASN, id astopo.IXPID) []astopo.ASN {
	var out []astopo.ASN
	for _, p := range d.peersOf[a] {
		if p.IXP != id {
			continue
		}
		if p.A == a {
			out = append(out, p.B)
		} else {
			out = append(out, p.A)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
