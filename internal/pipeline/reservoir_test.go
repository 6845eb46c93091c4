package pipeline

import (
	"testing"

	"eyeballas/internal/astopo"
)

// TestReservoirSlotUniformRange: reservoirSlot must always land in
// [0, i] — Algorithm R's correctness precondition — and be a pure
// function of (asn, i).
func TestReservoirSlotUniformRange(t *testing.T) {
	for _, asn := range []astopo.ASN{1, 7143, 65535} {
		for i := 0; i < 10000; i++ {
			j := reservoirSlot(asn, i)
			if j < 0 || j > i {
				t.Fatalf("reservoirSlot(%d, %d) = %d outside [0, %d]", asn, i, j, i)
			}
			if j != reservoirSlot(asn, i) {
				t.Fatalf("reservoirSlot(%d, %d) not pure", asn, i)
			}
		}
	}
}
