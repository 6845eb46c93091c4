package snapshot

import (
	"errors"
	"testing"

	"eyeballas/internal/core"
)

// FuzzReadSnapshot is the reader's never-panic guarantee: whatever
// bytes arrive — truncated, bit-flipped, adversarially structured —
// Decode either returns a snapshot or a *FormatError. It must never
// panic, over-allocate on fabricated counts, or accept an input that
// fails validation. CI runs this as a 10s smoke on every push.
func FuzzReadSnapshot(f *testing.F) {
	valid := Encode(testSnapshot(nil))
	f.Add(valid)
	f.Add([]byte{})
	f.Add([]byte("eyeballas-snap/"))
	f.Add(append([]byte("eyeballas-snap/\x01"), 0xFF, 0, 0, 0, 0, 0, 0, 0, 0))
	// Seeds that poke specific validators: version skew, a huge
	// declared count, a damaged checksum.
	skew := append([]byte(nil), valid...)
	skew[len(magic)] = Version + 1
	f.Add(skew)
	damaged := append([]byte(nil), valid...)
	damaged[len(damaged)/2] ^= 0x10
	f.Add(damaged)

	f.Fuzz(func(t *testing.T, data []byte) {
		snap, err := Decode(data) // must not panic
		if err != nil {
			var fe *FormatError
			if !errors.As(err, &fe) {
				t.Fatalf("Decode error %v is not a *FormatError", err)
			}
			return
		}
		// Accepted input: every sample has a Place, and equal label
		// tuples share one.
		shared := map[core.Place]*core.Place{}
		for _, rec := range snap.Dataset.ASes {
			for i, s := range rec.Samples {
				if s.Place == nil {
					t.Fatalf("AS %d sample %d has no Place", rec.ASN, i)
				}
				if p, ok := shared[*s.Place]; ok && p != s.Place {
					t.Fatalf("AS %d sample %d: labels %+v held in a second Place", rec.ASN, i, *s.Place)
				}
				shared[*s.Place] = s.Place
			}
		}
		// It must also be internally consistent enough to re-encode and
		// re-read without error.
		re := Encode(snap)
		if _, err := Decode(re); err != nil {
			t.Fatalf("re-encode of accepted input fails to decode: %v", err)
		}
	})
}
