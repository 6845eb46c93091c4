package geo

import (
	"math"
	"testing"
	"testing/quick"
)

func TestProjectionRoundTrip(t *testing.T) {
	pr := NewProjection(Point{42, 12})
	f := func(dLat, dLon float64) bool {
		p := Point{42 + math.Mod(dLat, 5), 12 + math.Mod(dLon, 5)}
		q := pr.ToGeo(pr.ToXY(p))
		return almostEq(p.Lat, q.Lat, 1e-9) && almostEq(p.Lon, q.Lon, 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestProjectionDistortion measures the claims in the Projection doc
// comment: distance distortion < 0.3% for pairs within 100 km of the
// origin, < 1.5% within 300 km, < 4% within 600 km, at mid latitudes.
func TestProjectionDistortion(t *testing.T) {
	origins := []Point{{42, 12}, {52, 5}, {38, -95}, {35, 105}, {-23, -46}}
	bounds := []struct {
		dist, maxRel float64
	}{{50, 0.003}, {100, 0.005}, {300, 0.015}, {600, 0.04}}
	for _, o := range origins {
		pr := NewProjection(o)
		for bearing := 0.0; bearing < 360; bearing += 30 {
			for _, b := range bounds {
				p1 := Destination(o, bearing, b.dist)
				p2 := Destination(o, bearing+137, b.dist/2)
				trueD := DistanceKm(p1, p2)
				projD := pr.ToXY(p1).DistanceKm(pr.ToXY(p2))
				if trueD < 1 {
					continue
				}
				rel := math.Abs(projD-trueD) / trueD
				if rel > b.maxRel {
					t.Errorf("origin %v bearing %v dist %v: distortion %.4f > %.4f", o, bearing, b.dist, rel, b.maxRel)
				}
			}
		}
	}
}

func TestProjectionOriginMapsToZero(t *testing.T) {
	pr := NewProjection(Point{48.8, 2.35})
	xy := pr.ToXY(pr.Origin)
	if !almostEq(xy.X, 0, 1e-12) || !almostEq(xy.Y, 0, 1e-12) {
		t.Errorf("origin projects to %v, want 0,0", xy)
	}
}

func TestProjectAll(t *testing.T) {
	pr := NewProjection(Point{40, 0})
	pts := []Point{{40, 0}, {41, 0}, {40, 1}}
	xys := pr.ProjectAll(pts)
	if len(xys) != 3 {
		t.Fatalf("len = %d", len(xys))
	}
	if xys[1].Y <= 0 || xys[2].X <= 0 {
		t.Errorf("unexpected signs: %v", xys)
	}
}

func TestXYDistance(t *testing.T) {
	a := XY{0, 0}
	b := XY{3, 4}
	if !almostEq(a.DistanceKm(b), 5, 1e-12) {
		t.Errorf("3-4-5 triangle broken: %v", a.DistanceKm(b))
	}
}
