package dht

import (
	"testing"

	"eyeballas/internal/ipnet"
	"eyeballas/internal/rng"
)

func members(n int) []ipnet.Addr {
	out := make([]ipnet.Addr, n)
	for i := range out {
		out[i] = ipnet.MakeAddr(10, byte(i>>16), byte(i>>8), byte(i))
	}
	return out
}

func buildNet(t testing.TB, n, k int, seed uint64) *Network {
	t.Helper()
	net, err := Build(members(n), k, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func TestBuildErrors(t *testing.T) {
	if _, err := Build(members(1), 8, rng.New(1)); err == nil {
		t.Error("single member accepted")
	}
	if _, err := Build(members(10), 0, rng.New(1)); err == nil {
		t.Error("zero bucket size accepted")
	}
}

func TestBuildBasics(t *testing.T) {
	net := buildNet(t, 500, 8, 2)
	if net.Size() != 500 {
		t.Fatalf("size = %d", net.Size())
	}
	ids := net.IDs()
	for i := 1; i < len(ids); i++ {
		if ids[i] <= ids[i-1] {
			t.Fatal("IDs not sorted/unique")
		}
	}
}

func TestBucketInvariants(t *testing.T) {
	net := buildNet(t, 800, 8, 3)
	checked := 0
	for _, id := range net.IDs()[:50] {
		node := net.Node(id)
		for b, bucket := range node.buckets {
			if len(bucket) > 8 {
				t.Fatalf("bucket %d of %x overfull: %d", b, id, len(bucket))
			}
			for _, other := range bucket {
				if other == id {
					t.Fatalf("node %x lists itself", id)
				}
				if got := bucketIndex(id, other); got != b {
					t.Fatalf("node %x bucket %d holds %x with index %d", id, b, other, got)
				}
				checked++
			}
		}
	}
	if checked == 0 {
		t.Fatal("no bucket entries checked")
	}
}

func TestBucketRange(t *testing.T) {
	id := NodeID(0x8000_0000_0000_0000)
	lo, hi := bucketRange(id, 0)
	// Bucket 0 of an ID with MSB set is the entire lower half.
	if lo != 0 || hi != 0x7FFF_FFFF_FFFF_FFFF {
		t.Errorf("bucket 0 range = [%x, %x]", lo, hi)
	}
	// Every ID in a bucket's range has that bucket index.
	for b := 0; b < 8; b++ {
		lo, hi := bucketRange(id, b)
		if bucketIndex(id, lo) != b || bucketIndex(id, hi) != b {
			t.Errorf("bucket %d endpoints misclassified", b)
		}
	}
}

func TestFindNodeReturnsClosest(t *testing.T) {
	net := buildNet(t, 600, 8, 4)
	q := net.IDs()[10]
	target := NodeID(0x1234_5678_9ABC_DEF0)
	got := net.FindNode(q, target)
	if len(got) == 0 || len(got) > 8 {
		t.Fatalf("FindNode returned %d nodes", len(got))
	}
	// Sorted by distance to target.
	for i := 1; i < len(got); i++ {
		if Distance(got[i-1], target) > Distance(got[i], target) {
			t.Fatal("FindNode results not distance-sorted")
		}
	}
	// And they are the closest among everything the node knows.
	node := net.Node(q)
	worst := Distance(got[len(got)-1], target)
	for _, bucket := range node.buckets {
		for _, known := range bucket {
			if Distance(known, target) < worst {
				found := false
				for _, g := range got {
					if g == known {
						found = true
						break
					}
				}
				if !found {
					t.Fatalf("closer known node %x omitted", known)
				}
			}
		}
	}
	if net.FindNode(NodeID(999999), target) != nil {
		t.Error("unknown node answered")
	}
}

func TestCrawlFullBudgetHighCoverage(t *testing.T) {
	net := buildNet(t, 2000, 8, 5)
	res := Crawl(net, CrawlConfig{}, rng.New(6))
	if cov := res.Coverage(net); cov < 0.9 {
		t.Errorf("unbudgeted crawl coverage %.3f < 0.9", cov)
	}
	// Every discovered address is a real member address.
	for id, addr := range res.Discovered {
		if net.Node(id) == nil || net.Node(id).Addr != addr {
			t.Fatalf("discovered phantom node %x", id)
		}
	}
	if res.RPCs == 0 || res.Queried == 0 {
		t.Error("crawl did no work")
	}
}

func TestCrawlBudgetLimitsCoverage(t *testing.T) {
	net := buildNet(t, 2000, 8, 7)
	full := Crawl(net, CrawlConfig{}, rng.New(8))
	partial := Crawl(net, CrawlConfig{RPCBudget: 50}, rng.New(8))
	if partial.RPCs > 50 {
		t.Errorf("budget exceeded: %d RPCs", partial.RPCs)
	}
	if partial.Coverage(net) >= full.Coverage(net) {
		t.Errorf("budgeted crawl (%.3f) should cover less than full (%.3f)",
			partial.Coverage(net), full.Coverage(net))
	}
}

func TestCrawlDeterministic(t *testing.T) {
	net := buildNet(t, 1000, 8, 9)
	r1 := Crawl(net, CrawlConfig{}, rng.New(10))
	r2 := Crawl(net, CrawlConfig{}, rng.New(10))
	if len(r1.Discovered) != len(r2.Discovered) || r1.RPCs != r2.RPCs {
		t.Error("crawl not deterministic")
	}
}

// TestCrawlCoverageMatchesStatisticalModel validates the summary the
// pipeline's statistical Kad model assumes (per-zone coverage centred
// near 0.9): an unbudgeted protocol-level crawl of a realistic overlay
// should land in the same coverage regime.
func TestCrawlCoverageMatchesStatisticalModel(t *testing.T) {
	net := buildNet(t, 5000, 10, 12)
	res := Crawl(net, CrawlConfig{}, rng.New(13))
	cov := res.Coverage(net)
	if cov < 0.8 || cov > 1.0 {
		t.Errorf("protocol-level coverage %.3f outside the statistical model's regime [0.8, 1.0]", cov)
	}
}

func BenchmarkBuild(b *testing.B) {
	m := members(5000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Build(m, 8, rng.New(uint64(i))); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCrawl(b *testing.B) {
	net := buildNet(b, 5000, 8, 14)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Crawl(net, CrawlConfig{}, rng.New(uint64(i)))
	}
}
