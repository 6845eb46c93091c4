package dht

import (
	"sort"

	"eyeballas/internal/ipnet"
	"eyeballas/internal/rng"
)

// The zone crawler's fixed settings mirror common crawler choices.
const (
	// zones is the number of equal slices of the ID space walked; the
	// paper-era Kad crawlers sweep zones to bound per-lookup state.
	zones int = 64
	// alpha is the lookup parallelism (queries in flight per step).
	alpha int = 3
	// seedNodes is how many random seed nodes the crawler starts from.
	seedNodes int = 8
	// sweepProbes is how many FIND_NODE targets each in-zone node is
	// probed with during the exhaustive sweep.
	sweepProbes int = 4
)

// CrawlConfig parameterizes the zone crawler. The zero value crawls
// without a budget.
type CrawlConfig struct {
	// RPCBudget caps the total FIND_NODE calls (0 = unlimited); partial
	// budgets model the bandwidth limits that give real crawls their
	// <100% coverage.
	RPCBudget int
}

// CrawlResult summarizes a crawl.
type CrawlResult struct {
	Discovered map[NodeID]ipnet.Addr // every node learned of
	Queried    int                   // nodes actually sent an RPC
	RPCs       int                   // FIND_NODE calls issued
}

// Coverage returns the fraction of the network discovered.
func (r *CrawlResult) Coverage(net *Network) float64 {
	if net.Size() == 0 {
		return 0
	}
	return float64(len(r.Discovered)) / float64(net.Size())
}

// Crawl walks the ID space zone by zone with iterative α-parallel
// lookups, the protocol the paper's Kad dataset was gathered with. The
// crawler is an outside observer: it learns node addresses only through
// FIND_NODE responses.
func Crawl(net *Network, cfg CrawlConfig, src *rng.Source) *CrawlResult {
	res := &CrawlResult{Discovered: make(map[NodeID]ipnet.Addr)}
	ids := net.IDs()

	// Bootstrap peers (a crawler ships a seed list).
	bootstrap := make([]NodeID, 0, seedNodes)
	for len(bootstrap) < seedNodes && len(bootstrap) < len(ids) {
		id := ids[src.Intn(len(ids))]
		bootstrap = append(bootstrap, id)
		res.Discovered[id] = net.Node(id).Addr
	}

	budgetLeft := func() bool {
		return cfg.RPCBudget == 0 || res.RPCs < cfg.RPCBudget
	}

	queriedGlobal := map[NodeID]bool{}
	zoneWidth := NodeID(^uint64(0)) / NodeID(zones)
	for z := 0; z < zones && budgetLeft(); z++ {
		zLo := NodeID(z) * zoneWidth
		zHi := zLo + zoneWidth - 1
		if z == zones-1 {
			zHi = NodeID(^uint64(0))
		}
		target := zLo + zoneWidth/2
		inZone := func(id NodeID) bool { return id >= zLo && id <= zHi }

		// Phase 1 — iterative α-parallel lookup toward the zone centre,
		// to land inside the zone from the bootstrap set. Lookup state is
		// per zone: a node already swept in an earlier zone may still be
		// queried again to route toward this one, as real crawlers
		// re-query their seeds per lookup.
		queried := map[NodeID]bool{}
		candidates := append([]NodeID(nil), bootstrap...)
		for id := range res.Discovered {
			if inZone(id) {
				candidates = append(candidates, id)
			}
		}
		for budgetLeft() {
			sort.Slice(candidates, func(i, j int) bool {
				return Distance(candidates[i], target) < Distance(candidates[j], target)
			})
			var batch []NodeID
			for _, c := range candidates {
				if !queried[c] {
					batch = append(batch, c)
					if len(batch) == alpha {
						break
					}
				}
			}
			if len(batch) == 0 {
				break
			}
			progressed := false
			for _, q := range batch {
				if !budgetLeft() {
					break
				}
				queried[q] = true
				res.Queried++
				res.RPCs++
				for _, found := range net.FindNode(q, target) {
					if _, known := res.Discovered[found]; !known {
						res.Discovered[found] = net.Node(found).Addr
						candidates = append(candidates, found)
						progressed = true
					}
				}
			}
			if !progressed {
				break
			}
			// Standard crawler memory bound on lookup state.
			if len(candidates) > 8*net.K()*alpha {
				sort.Slice(candidates, func(i, j int) bool {
					return Distance(candidates[i], target) < Distance(candidates[j], target)
				})
				candidates = candidates[:8*net.K()*alpha]
			}
		}

		// Phase 2 — exhaustive in-zone sweep (the Cruiser strategy):
		// every discovered in-zone node is probed with several targets
		// spread across the zone, extracting broad slices of its routing
		// table; newly revealed in-zone nodes join the frontier until the
		// zone closes or the budget runs out. Self-targeted probes alone
		// would stall: the k-XOR-closest graph fragments into trie
		// clusters of ~k nodes.
		frontier := make([]NodeID, 0, 64)
		for id := range res.Discovered {
			if inZone(id) && !queriedGlobal[id] {
				frontier = append(frontier, id)
			}
		}
		sort.Slice(frontier, func(i, j int) bool { return frontier[i] < frontier[j] })
		for len(frontier) > 0 && budgetLeft() {
			q := frontier[len(frontier)-1]
			frontier = frontier[:len(frontier)-1]
			if queriedGlobal[q] {
				continue
			}
			queriedGlobal[q] = true
			res.Queried++
			for r := 0; r < sweepProbes && budgetLeft(); r++ {
				probe := q // first probe: the node's own neighbourhood
				if r > 0 {
					probe = zLo + NodeID(src.Uint64())%zoneWidth
				}
				res.RPCs++
				for _, found := range net.FindNode(q, probe) {
					if _, known := res.Discovered[found]; !known {
						res.Discovered[found] = net.Node(found).Addr
						if inZone(found) {
							frontier = append(frontier, found)
						}
					}
				}
			}
		}
	}
	return res
}
