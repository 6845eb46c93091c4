// Package dht simulates a Kademlia-style distributed hash table and the
// iterative zone crawler the paper's Kad dataset was collected with
// (Cruiser-style crawls of the Kad ID space, §2 "Sampling End-users").
//
// The statistical crawl model in internal/p2p summarizes a crawler's
// outcome (per-zone coverage ~0.9); this package builds the mechanism
// itself — node IDs, XOR metric, k-buckets, FIND_NODE RPCs, and an
// α-parallel iterative lookup walking the ID space zone by zone — so the
// summary can be validated against protocol-level behaviour (see the
// package tests) and so crawl dynamics (RPC budgets, bucket sizes) can be
// studied directly. The crawler's own settings are constants — zones
// (64), alpha (3), seedNodes (8) and sweepProbes (4) — and only its RPC
// budget varies.
package dht

import (
	"fmt"
	"math/bits"
	"sort"

	"eyeballas/internal/ipnet"
	"eyeballas/internal/rng"
)

// NodeID is a position in the 64-bit Kademlia ID space (real Kad uses 128
// bits; 64 preserves all structure at simulation scale).
type NodeID uint64

// Distance is the XOR metric.
func Distance(a, b NodeID) uint64 { return uint64(a ^ b) }

// bucketIndex returns the k-bucket index for a neighbour: the position of
// the highest differing bit (0 = farthest half of the ID space, 63 =
// immediate neighbourhood). Equal IDs return 64.
func bucketIndex(self, other NodeID) int {
	if self == other {
		return 64
	}
	return bits.LeadingZeros64(uint64(self ^ other))
}

// Node is one DHT participant.
type Node struct {
	ID   NodeID
	Addr ipnet.Addr
	// buckets[i] holds up to k known neighbours whose highest differing
	// bit is i. Only the first few buckets are ever non-empty in a
	// network far smaller than 2^64, exactly as in real deployments.
	buckets [][]NodeID
}

// Network is a fully-built overlay.
type Network struct {
	nodes map[NodeID]*Node
	ids   []NodeID // sorted, for construction and verification
	k     int
}

// K returns the bucket capacity the network was built with.
func (n *Network) K() int { return k(n) }

func k(n *Network) int { return n.k }

// Size returns the number of nodes.
func (n *Network) Size() int { return len(n.ids) }

// IDs returns the sorted node IDs (shared slice; do not modify).
func (n *Network) IDs() []NodeID { return n.ids }

// Node returns a node by ID, or nil.
func (n *Network) Node(id NodeID) *Node { return n.nodes[id] }

// Build constructs a network over the given member addresses: each member
// receives a deterministic pseudo-random ID, and routing tables are
// populated the way a long-running network's tables look — each bucket
// holds up to kBucket random members of its distance range.
func Build(members []ipnet.Addr, kBucket int, src *rng.Source) (*Network, error) {
	if len(members) < 2 {
		return nil, fmt.Errorf("dht: need at least 2 members, got %d", len(members))
	}
	if kBucket < 1 {
		return nil, fmt.Errorf("dht: bucket size must be >= 1")
	}
	net := &Network{nodes: make(map[NodeID]*Node, len(members)), k: kBucket}
	for _, addr := range members {
		id := NodeID(src.Uint64())
		for net.nodes[id] != nil { // collisions are astronomically rare
			id = NodeID(src.Uint64())
		}
		net.nodes[id] = &Node{ID: id, Addr: addr}
		net.ids = append(net.ids, id)
	}
	sort.Slice(net.ids, func(i, j int) bool { return net.ids[i] < net.ids[j] })

	// Populate k-buckets. For bucket i of node x, the eligible range is
	// the set of IDs sharing i leading bits with x and differing at bit
	// i — a contiguous interval of the ID space, found by binary search
	// on the sorted IDs.
	for _, id := range net.ids {
		node := net.nodes[id]
		node.buckets = make([][]NodeID, 65)
		for b := 0; b < 64; b++ {
			lo, hi := bucketRange(id, b)
			first := sort.Search(len(net.ids), func(i int) bool { return net.ids[i] >= lo })
			last := sort.Search(len(net.ids), func(i int) bool { return net.ids[i] > hi })
			count := last - first
			if count == 0 {
				continue
			}
			take := kBucket
			if take > count {
				take = count
			}
			seen := map[int]bool{}
			for len(node.buckets[b]) < take {
				idx := first + src.Intn(count)
				if seen[idx] {
					continue
				}
				seen[idx] = true
				node.buckets[b] = append(node.buckets[b], net.ids[idx])
			}
			sort.Slice(node.buckets[b], func(x, y int) bool { return node.buckets[b][x] < node.buckets[b][y] })
		}
	}
	return net, nil
}

// bucketRange returns the inclusive ID interval of bucket b of node id:
// IDs sharing b leading bits and differing at bit b.
func bucketRange(id NodeID, b int) (lo, hi NodeID) {
	flip := id ^ (NodeID(1) << (63 - b))
	mask := NodeID(^uint64(0)) >> (b + 1) // low bits free
	return flip &^ mask, flip | mask
}

// FindNode is the FIND_NODE RPC: the queried node returns the k closest
// nodes to target that it knows (from its buckets), by XOR distance. An
// unknown node does not answer (nil response).
func (n *Network) FindNode(queried NodeID, target NodeID) []NodeID {
	node := n.nodes[queried]
	if node == nil {
		return nil
	}
	var known []NodeID
	for _, bucket := range node.buckets {
		known = append(known, bucket...)
	}
	sort.Slice(known, func(i, j int) bool {
		return Distance(known[i], target) < Distance(known[j], target)
	})
	if len(known) > n.k {
		known = known[:n.k]
	}
	return known
}
