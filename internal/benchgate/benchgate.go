// Package benchgate holds what the repository's performance gates share.
// Only tests import it.
//
// A wall-clock gate compares two sides of one change in code (client
// against bare net/http, tracing on against off) inside one process. A
// Schedule times them in many short rounds and alternates which side
// goes first, so host noise, garbage collection and page faults land on
// both sides alike, and the median of the per-round ratios drops the
// rounds a burst of noise hit anyway.
//
// Paired benchmarks run their schedule once per call, whatever b.N is:
//
//	go test -run '^$' -bench Paired -benchtime 1x ./...
//
// At the default -benchtime the testing package calls a benchmark again
// until a second has passed, so a schedule shorter than that runs more
// than once and the last run's ratio is reported.
package benchgate

import (
	"runtime"
	"sort"
	"testing"
	"time"
)

// Schedule fixes the work of a paired benchmark: Rounds rounds, each
// timing Ops calls of one side and then Ops calls of the other. Even
// rounds run x first, odd rounds y first.
type Schedule struct {
	Rounds, Ops int
}

// ratios runs the schedule and returns each round's time for x over its
// time for y.
func (s Schedule) ratios(x, y func()) []float64 {
	ratios := make([]float64, s.Rounds)
	for i := range ratios {
		var tx, ty time.Duration
		if i%2 == 0 {
			tx, ty = s.time(x), s.time(y)
		} else {
			ty, tx = s.time(y), s.time(x)
		}
		ratios[i] = float64(tx) / float64(ty)
	}
	return ratios
}

func (s Schedule) time(f func()) time.Duration {
	start := time.Now()
	for i := 0; i < s.Ops; i++ {
		f()
	}
	return time.Since(start)
}

// Ratio runs s over x and y, reports the median round's ratio under unit
// and returns it.
func Ratio(b *testing.B, s Schedule, unit string, x, y func()) float64 {
	r := median(s.ratios(x, y))
	b.ReportMetric(r, unit)
	return r
}

func median(v []float64) float64 {
	sort.Float64s(v)
	n := len(v)
	if n%2 == 1 {
		return v[n/2]
	}
	return (v[n/2-1] + v[n/2]) / 2
}

// BytesPerRun returns the heap bytes one call of f allocates, averaged
// over runs calls after a warm-up call: testing.AllocsPerRun's method,
// for bytes instead of allocations.
func BytesPerRun(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}
