// Package rng provides the deterministic, splittable random number
// generation used by every stochastic component of the library.
//
// All synthetic-world generation flows from a single uint64 seed. Each
// subsystem derives an independent child generator with Split, so adding or
// reordering random draws inside one subsystem never perturbs another —
// essential for stable tests, benchmarks, and reproducible experiment
// tables.
package rng

import (
	"hash/fnv"
	"math"
	"math/rand"
)

// Source is a deterministic random source. It wraps math/rand with a
// splittable derivation scheme and the extra distributions the generators
// need.
type Source struct {
	seed uint64
	r    *rand.Rand
}

// New returns a Source rooted at seed.
func New(seed uint64) *Source {
	return &Source{seed: seed, r: rand.New(rand.NewSource(int64(Mix(seed))))}
}

// Gamma is splitmix64's golden-gamma increment.
const Gamma = 0x9e3779b97f4a7c15

// Mix is splitmix64's output step: it adds Gamma to z and applies the
// finalizer, a full-avalanche mix that decorrelates nearby inputs. It
// is the one mixer behind every seed derivation and stateless draw in
// the module.
func Mix(z uint64) uint64 {
	z += Gamma
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// SplitMix is a splitmix64 stream: one word of state and no
// allocation, for hot paths that draw a few values per item and cannot
// afford a Source each. Equal seeds give equal streams.
type SplitMix struct{ state uint64 }

// NewSplitMix returns the stream seeded at seed.
func NewSplitMix(seed uint64) SplitMix { return SplitMix{state: seed} }

// Next returns the stream's next 64 bits.
func (r *SplitMix) Next() uint64 {
	z := r.state
	r.state += Gamma
	return Mix(z)
}

// Float64 returns a uniform value in [0, 1) from the next 53 bits.
func (r *SplitMix) Float64() float64 { return float64(r.Next()>>11) / (1 << 53) }

// Split derives an independent child source identified by label. The same
// (seed, label) pair always yields the same child stream, regardless of how
// much the parent has been consumed.
func (s *Source) Split(label string) *Source {
	h := fnv.New64a()
	h.Write([]byte(label))
	return New(Mix(s.seed ^ h.Sum64()))
}

// SplitN derives an independent child source identified by label and an
// index, for per-item streams (e.g. one stream per AS).
func (s *Source) SplitN(label string, n int) *Source {
	h := fnv.New64a()
	h.Write([]byte(label))
	return New(Mix(Mix(s.seed^h.Sum64()) + uint64(n)*Gamma))
}

// Seed returns the seed this source was rooted at.
func (s *Source) Seed() uint64 { return s.seed }

// Float64 returns a uniform value in [0, 1).
func (s *Source) Float64() float64 { return s.r.Float64() }

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (s *Source) Intn(n int) int { return s.r.Intn(n) }

// Int63 returns a uniform non-negative int64.
func (s *Source) Int63() int64 { return s.r.Int63() }

// Uint32 returns a uniform uint32.
func (s *Source) Uint32() uint32 { return s.r.Uint32() }

// Uint64 returns a uniform uint64.
func (s *Source) Uint64() uint64 { return s.r.Uint64() }

// Norm returns a normal sample with the given mean and standard deviation.
func (s *Source) Norm(mean, stddev float64) float64 {
	return mean + stddev*s.r.NormFloat64()
}

// Exp returns an exponential sample with the given mean. It panics if
// mean <= 0.
func (s *Source) Exp(mean float64) float64 {
	if mean <= 0 {
		panic("rng: Exp mean must be positive")
	}
	return s.r.ExpFloat64() * mean
}

// Bool returns true with probability p.
func (s *Source) Bool(p float64) bool { return s.r.Float64() < p }

// Range returns a uniform value in [lo, hi).
func (s *Source) Range(lo, hi float64) float64 {
	return lo + (hi-lo)*s.r.Float64()
}

// IntRange returns a uniform int in [lo, hi]. It panics if hi < lo.
func (s *Source) IntRange(lo, hi int) int {
	if hi < lo {
		panic("rng: IntRange hi < lo")
	}
	return lo + s.r.Intn(hi-lo+1)
}

// Perm returns a random permutation of [0, n).
func (s *Source) Perm(n int) []int { return s.r.Perm(n) }

// Shuffle randomizes the order of n elements using swap.
func (s *Source) Shuffle(n int, swap func(i, j int)) { s.r.Shuffle(n, swap) }

// Zipf draws integers in [0, n) with probability proportional to
// 1/(i+1)^exponent. A fresh Zipf state is cheap; generators that draw many
// values should hold one via NewZipf.
type Zipf struct {
	cum []float64
}

// NewZipf precomputes a Zipf distribution over [0, n). It panics if n <= 0
// or exponent < 0.
func NewZipf(n int, exponent float64) *Zipf {
	if n <= 0 {
		panic("rng: Zipf n must be positive")
	}
	if exponent < 0 {
		panic("rng: Zipf exponent must be non-negative")
	}
	cum := make([]float64, n)
	total := 0.0
	for i := 0; i < n; i++ {
		total += math.Pow(float64(i+1), -exponent)
		cum[i] = total
	}
	for i := range cum {
		cum[i] /= total
	}
	return &Zipf{cum: cum}
}

// Draw samples one index from the distribution.
func (z *Zipf) Draw(s *Source) int {
	u := s.Float64()
	lo, hi := 0, len(z.cum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cum[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// N returns the support size.
func (z *Zipf) N() int { return len(z.cum) }

// WeightedIndex draws an index with probability proportional to weights[i].
// It returns -1 if weights is empty or sums to a non-positive value.
func (s *Source) WeightedIndex(weights []float64) int {
	total := 0.0
	for _, w := range weights {
		if w > 0 {
			total += w
		}
	}
	if total <= 0 {
		return -1
	}
	u := s.Float64() * total
	acc := 0.0
	for i, w := range weights {
		if w <= 0 {
			continue
		}
		acc += w
		if u < acc {
			return i
		}
	}
	return len(weights) - 1
}

// TruncNorm returns a normal sample clamped to [lo, hi] by resampling
// (up to 32 tries) and then clamping.
func (s *Source) TruncNorm(mean, stddev, lo, hi float64) float64 {
	for i := 0; i < 32; i++ {
		v := s.Norm(mean, stddev)
		if v >= lo && v <= hi {
			return v
		}
	}
	v := s.Norm(mean, stddev)
	return math.Min(hi, math.Max(lo, v))
}

// Pareto returns a bounded Pareto-like heavy-tailed sample with the given
// minimum and shape alpha. Larger alpha concentrates mass near min.
func (s *Source) Pareto(min, alpha float64) float64 {
	if min <= 0 || alpha <= 0 {
		panic("rng: Pareto parameters must be positive")
	}
	u := s.Float64()
	if u >= 1 {
		u = math.Nextafter(1, 0)
	}
	return min / math.Pow(1-u, 1/alpha)
}

// Poisson returns a Poisson sample with the given mean (Knuth's algorithm
// for small means, normal approximation above 64).
func (s *Source) Poisson(mean float64) int {
	if mean <= 0 {
		return 0
	}
	if mean > 64 {
		v := s.Norm(mean, math.Sqrt(mean))
		if v < 0 {
			return 0
		}
		return int(v + 0.5)
	}
	l := math.Exp(-mean)
	k := 0
	p := 1.0
	for {
		p *= s.Float64()
		if p <= l {
			return k
		}
		k++
	}
}
