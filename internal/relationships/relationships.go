// Package relationships infers business relationships between ASes from
// observed AS paths, in the style of Gao's classic algorithm — the
// synthetic analogue of the CAIDA AS-relationships dataset the paper's §6
// case study consults.
//
// The inference is deliberately imperfect in the ways the real dataset
// is: it sees only paths exported toward the vantage points, infers
// customer-provider links by the position of the highest-degree AS on
// each path, and recognizes peerings only around path summits.
package relationships

import (
	"sort"

	"eyeballas/internal/astopo"
	"eyeballas/internal/bgp"
)

// Kind is an inferred relationship type.
type Kind int

// Relationship kinds.
const (
	CustomerToProvider Kind = iota // A is a customer of B
	PeerToPeer                     // A and B are settlement-free peers
	Sibling                        // conflicting evidence both ways
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case CustomerToProvider:
		return "c2p"
	case PeerToPeer:
		return "p2p"
	case Sibling:
		return "sibling"
	default:
		return "unknown"
	}
}

// Edge is one inferred relationship. For CustomerToProvider, A is the
// customer. For PeerToPeer and Sibling, A < B.
type Edge struct {
	A, B astopo.ASN
	Kind Kind
}

// Inferred is the inference result.
type Inferred struct {
	Edges []Edge

	rel map[[2]astopo.ASN]Kind // normalized (min,max) → kind with orientation folded in
	c2p map[[2]astopo.ASN]bool // (customer, provider) pairs
}

// Providers returns the inferred providers of an AS, ascending.
func (inf *Inferred) Providers(a astopo.ASN) []astopo.ASN {
	var out []astopo.ASN
	for pair := range inf.c2p {
		if pair[0] == a {
			out = append(out, pair[1])
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// KindOf returns the inferred relationship between two ASes. ok is false
// if the pair never appeared adjacent on an observed path. When the kind
// is CustomerToProvider, customerFirst reports whether a (the first
// argument) is the customer.
func (inf *Inferred) KindOf(a, b astopo.ASN) (kind Kind, customerFirst bool, ok bool) {
	if inf.c2p[[2]astopo.ASN{a, b}] {
		return CustomerToProvider, true, true
	}
	if inf.c2p[[2]astopo.ASN{b, a}] {
		return CustomerToProvider, false, true
	}
	key := norm(a, b)
	k, exists := inf.rel[key]
	if !exists {
		return 0, false, false
	}
	return k, false, true
}

func norm(a, b astopo.ASN) [2]astopo.ASN {
	if a > b {
		a, b = b, a
	}
	return [2]astopo.ASN{a, b}
}

// peerDegreeRatio bounds how dissimilar two summit ASes' degrees may be
// while still being called peers; beyond it, the lower-degree side is
// assumed to be a customer.
const peerDegreeRatio = 3.0

// Infer runs the Gao-style inference over the AS paths of the given RIBs.
func Infer(ribs ...*bgp.RIB) *Inferred {
	// Collect distinct paths.
	seen := map[string]bool{}
	var paths [][]astopo.ASN
	for _, rib := range ribs {
		for _, e := range rib.Entries {
			if len(e.Path) < 2 {
				continue
			}
			key := pathKey(e.Path)
			if !seen[key] {
				seen[key] = true
				paths = append(paths, e.Path)
			}
		}
	}

	// Degrees from path adjacency.
	neighbours := map[astopo.ASN]map[astopo.ASN]bool{}
	addAdj := func(a, b astopo.ASN) {
		if neighbours[a] == nil {
			neighbours[a] = map[astopo.ASN]bool{}
		}
		neighbours[a][b] = true
	}
	for _, p := range paths {
		for i := 0; i+1 < len(p); i++ {
			addAdj(p[i], p[i+1])
			addAdj(p[i+1], p[i])
		}
	}
	degree := func(a astopo.ASN) int { return len(neighbours[a]) }

	// Phase 1: votes from path positions relative to the summit.
	votes := map[[2]astopo.ASN]int{} // (customer, provider) → count
	summitEdge := map[[2]astopo.ASN]int{}
	for _, p := range paths {
		j := 0
		for i := range p {
			if degree(p[i]) > degree(p[j]) {
				j = i
			}
		}
		for i := 0; i+1 < len(p); i++ {
			switch {
			case i+1 < j: // strictly uphill
				votes[[2]astopo.ASN{p[i], p[i+1]}]++
			case i >= j: // downhill
				votes[[2]astopo.ASN{p[i+1], p[i]}]++
			default: // i+1 == j: the summit edge
				summitEdge[norm(p[i], p[i+1])]++
			}
		}
	}

	inf := &Inferred{
		rel: map[[2]astopo.ASN]Kind{},
		c2p: map[[2]astopo.ASN]bool{},
	}
	done := map[[2]astopo.ASN]bool{}

	emitC2P := func(cust, prov astopo.ASN) {
		inf.c2p[[2]astopo.ASN{cust, prov}] = true
		inf.Edges = append(inf.Edges, Edge{A: cust, B: prov, Kind: CustomerToProvider})
	}

	// Resolve voted edges.
	for pair, n := range votes {
		key := norm(pair[0], pair[1])
		if done[key] {
			continue
		}
		done[key] = true
		rev := votes[[2]astopo.ASN{pair[1], pair[0]}]
		switch {
		case rev == 0:
			emitC2P(pair[0], pair[1])
		case n == 0:
			emitC2P(pair[1], pair[0])
		case float64(n) >= 2*float64(rev):
			emitC2P(pair[0], pair[1])
		case float64(rev) >= 2*float64(n):
			emitC2P(pair[1], pair[0])
		default:
			inf.rel[key] = Sibling
			inf.Edges = append(inf.Edges, Edge{A: key[0], B: key[1], Kind: Sibling})
		}
	}

	// Summit-only edges: peers if degrees are comparable, otherwise the
	// lower-degree side is the customer.
	for key, n := range summitEdge {
		if n == 0 || done[key] {
			continue
		}
		done[key] = true
		dA, dB := float64(degree(key[0])), float64(degree(key[1]))
		lo, hi := dA, dB
		if lo > hi {
			lo, hi = hi, lo
		}
		if lo > 0 && hi/lo <= peerDegreeRatio {
			inf.rel[key] = PeerToPeer
			inf.Edges = append(inf.Edges, Edge{A: key[0], B: key[1], Kind: PeerToPeer})
		} else if dA < dB {
			emitC2P(key[0], key[1])
		} else {
			emitC2P(key[1], key[0])
		}
	}

	sort.Slice(inf.Edges, func(i, j int) bool {
		if inf.Edges[i].A != inf.Edges[j].A {
			return inf.Edges[i].A < inf.Edges[j].A
		}
		if inf.Edges[i].B != inf.Edges[j].B {
			return inf.Edges[i].B < inf.Edges[j].B
		}
		return inf.Edges[i].Kind < inf.Edges[j].Kind
	})
	return inf
}

func pathKey(p []astopo.ASN) string {
	b := make([]byte, 0, len(p)*4)
	for _, a := range p {
		b = append(b, byte(a), byte(a>>8), byte(a>>16), byte(a>>24))
	}
	return string(b)
}

// Accuracy compares an inference against ground truth, for evaluation.
type Accuracy struct {
	C2PTotal   int // inferred c2p edges whose pair truly has a relationship
	C2PCorrect int // ... with the right orientation
	P2PTotal   int // inferred p2p edges whose pair truly has a relationship
	P2PCorrect int
}

// Evaluate scores the inference against the generating world.
func Evaluate(inf *Inferred, w *astopo.World) Accuracy {
	truthProv := map[[2]astopo.ASN]bool{}
	for _, a := range w.ASNs() {
		for _, p := range w.Providers(a) {
			truthProv[[2]astopo.ASN{a, p}] = true
		}
	}
	truthPeer := map[[2]astopo.ASN]bool{}
	for _, p := range w.Peerings() {
		truthPeer[norm(p.A, p.B)] = true
	}
	var acc Accuracy
	for _, e := range inf.Edges {
		switch e.Kind {
		case CustomerToProvider:
			if truthProv[[2]astopo.ASN{e.A, e.B}] {
				acc.C2PTotal++
				acc.C2PCorrect++
			} else if truthProv[[2]astopo.ASN{e.B, e.A}] || truthPeer[norm(e.A, e.B)] {
				acc.C2PTotal++
			}
		case PeerToPeer:
			if truthPeer[norm(e.A, e.B)] {
				acc.P2PTotal++
				acc.P2PCorrect++
			} else if truthProv[[2]astopo.ASN{e.A, e.B}] || truthProv[[2]astopo.ASN{e.B, e.A}] {
				acc.P2PTotal++
			}
		}
	}
	return acc
}
