// dht-crawl demonstrates the protocol-level substrate behind the paper's
// Kad dataset: a simulated Kademlia overlay built from the synthetic
// world's end users, crawled zone by zone with iterative FIND_NODE
// lookups — the mechanism whose outcome the pipeline's statistical crawl
// model summarizes.
//
// The example sweeps the crawler's RPC budget to show how coverage (and
// therefore the per-AS peer samples the paper's method consumes) depends
// on crawl effort.
package main

import (
	"fmt"
	"log"

	"eyeballas"
	"eyeballas/internal/dht"
	"eyeballas/internal/ipnet"
	"eyeballas/internal/rng"
	"eyeballas/internal/users"
)

func main() {
	log.SetFlags(0)

	world, err := eyeball.GenerateSmallWorld(42)
	if err != nil {
		log.Fatal(err)
	}

	// Materialize the Kad population of the European eyeballs: each AS
	// contributes users proportional to its size (as the crawl model
	// does), each with a real address from the AS's prefixes.
	src := rng.New(42).Split("dht-example")
	placer := users.NewPlacer(world)
	var addrs []ipnet.Addr
	owner := map[ipnet.Addr]eyeball.ASN{}
	for _, a := range world.Eyeballs() {
		n := a.Customers / 100 // a Kad-penetration-sized slice
		if n == 0 {
			continue
		}
		for _, u := range placer.Materialize(a, n, src.SplitN("mat", int(a.ASN))) {
			addrs = append(addrs, u.IP)
			owner[u.IP] = a.ASN
		}
	}
	fmt.Printf("overlay population: %d Kad users across %d eyeball ASes\n",
		len(addrs), len(world.Eyeballs()))

	network, err := dht.Build(addrs, 10, src.Split("net"))
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("\nRPC budget sweep (zone crawl, alpha=3, 64 zones):")
	fmt.Printf("  %-10s %10s %10s %10s\n", "budget", "RPCs", "nodes", "coverage")
	for _, budget := range []int{200, 1000, 5000, 0} {
		res := dht.Crawl(network, dht.CrawlConfig{RPCBudget: budget}, rng.New(7).Split("crawl"))
		label := fmt.Sprintf("%d", budget)
		if budget == 0 {
			label = "unlimited"
		}
		fmt.Printf("  %-10s %10d %10d %9.1f%%\n",
			label, res.RPCs, len(res.Discovered), 100*res.Coverage(network))
	}

	// The crawl's output is exactly the paper's input: IP addresses
	// attributable to eyeball ASes. Show the per-AS sample counts the
	// unlimited crawl would hand to the pipeline.
	res := dht.Crawl(network, dht.CrawlConfig{}, rng.New(7).Split("crawl"))
	perAS := map[eyeball.ASN]int{}
	for _, addr := range res.Discovered {
		perAS[owner[addr]]++
	}
	fmt.Printf("\nunlimited crawl attributed peers to %d ASes; largest samples:\n", len(perAS))
	shown := 0
	for _, a := range world.Eyeballs() {
		if n := perAS[a.ASN]; n > 0 && shown < 5 {
			fmt.Printf("  AS %-5d %-18s %6d peers\n", a.ASN, a.Name, n)
			shown++
		}
	}
}
