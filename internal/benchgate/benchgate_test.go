package benchgate

import (
	"strings"
	"testing"
)

// TestScheduleOrder checks the schedule, not its timing: every round
// calls each side Ops times back to back, even rounds lead with x, odd
// rounds with y, and there is one ratio per round.
func TestScheduleOrder(t *testing.T) {
	var calls strings.Builder
	s := Schedule{Rounds: 5, Ops: 3}
	ratios := s.ratios(func() { calls.WriteByte('x') }, func() { calls.WriteByte('y') })
	want := "xxxyyy" + "yyyxxx" + "xxxyyy" + "yyyxxx" + "xxxyyy"
	if got := calls.String(); got != want {
		t.Errorf("call order %q, want %q", got, want)
	}
	if len(ratios) != s.Rounds {
		t.Errorf("%d ratios for %d rounds", len(ratios), s.Rounds)
	}
	for i, r := range ratios {
		if !(r > 0) {
			t.Errorf("round %d: ratio %v, want > 0", i, r)
		}
	}
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{
		{[]float64{3}, 3},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.in); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

var sink []byte

// TestBytesPerRun: a call that allocates 4 KiB reads 4 KiB. The counter
// is process-wide, so an allocation elsewhere in the process during the
// runs may add a little.
func TestBytesPerRun(t *testing.T) {
	got := BytesPerRun(1000, func() { sink = make([]byte, 4096) })
	if got < 4096 || got > 4096*1.01 {
		t.Errorf("BytesPerRun = %v, want 4096 (+1%%)", got)
	}
}
