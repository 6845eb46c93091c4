package geodb

import (
	"testing"
)

func BenchmarkLocate(b *testing.B) {
	// Reuse the package test fixture (one world + crawl).
	w, peers := testSetup(b)
	if len(peers) == 0 {
		b.Fatal("no peers")
	}
	db := NewGeoCity(w)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := peers[i%len(peers)]
		db.Locate(p.IP, p.TrueLoc)
	}
}

// pairSink keeps BenchmarkLocatePair's result live.
var pairSink float64

// BenchmarkLocatePair is the pipeline's per-peer shape: both databases
// answer through one shared site, then the cross-database error.
func BenchmarkLocatePair(b *testing.B) {
	w, peers := testSetup(b)
	a := NewGeoCity(w)
	c := NewIPLoc(w)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := peers[i%len(peers)]
		site := Site{Loc: p.TrueLoc}
		ra := a.LocateAt(p.IP, &site)
		rb := c.LocateAt(p.IP, &site)
		pairSink, _ = CrossError(ra, rb)
	}
}
