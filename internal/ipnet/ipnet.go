// Package ipnet provides the IPv4 value types the synthetic Internet uses:
// addresses, prefixes, a sequential prefix allocator for assigning address
// space to ASes, and a radix-trie table with longest-prefix match for
// IP→AS resolution (the role RouteViews BGP tables play in the paper).
package ipnet

import (
	"fmt"
	"strconv"
	"strings"
)

// Addr is an IPv4 address as a big-endian uint32.
type Addr uint32

// MakeAddr builds an address from dotted-quad octets.
func MakeAddr(a, b, c, d byte) Addr {
	return Addr(uint32(a)<<24 | uint32(b)<<16 | uint32(c)<<8 | uint32(d))
}

// ParseAddr parses dotted-quad notation.
func ParseAddr(s string) (Addr, error) {
	parts := strings.Split(s, ".")
	if len(parts) != 4 {
		return 0, fmt.Errorf("ipnet: invalid address %q", s)
	}
	var v uint32
	for _, p := range parts {
		n, err := strconv.Atoi(p)
		if err != nil || n < 0 || n > 255 || (len(p) > 1 && p[0] == '0') {
			return 0, fmt.Errorf("ipnet: invalid address %q", s)
		}
		v = v<<8 | uint32(n)
	}
	return Addr(v), nil
}

// String renders dotted-quad notation.
func (a Addr) String() string {
	return fmt.Sprintf("%d.%d.%d.%d", byte(a>>24), byte(a>>16), byte(a>>8), byte(a))
}

// Prefix is an IPv4 CIDR prefix. The address is stored in canonical form
// (host bits zero).
type Prefix struct {
	Addr Addr
	Bits int // 0..32
}

// MakePrefix canonicalizes addr/bits, zeroing host bits. It panics if bits
// is outside [0, 32].
func MakePrefix(addr Addr, bits int) Prefix {
	if bits < 0 || bits > 32 {
		panic(fmt.Sprintf("ipnet: invalid prefix length %d", bits))
	}
	return Prefix{Addr: addr & mask(bits), Bits: bits}
}

// ParsePrefix parses "a.b.c.d/len" notation.
func ParsePrefix(s string) (Prefix, error) {
	slash := strings.IndexByte(s, '/')
	if slash < 0 {
		return Prefix{}, fmt.Errorf("ipnet: invalid prefix %q", s)
	}
	addr, err := ParseAddr(s[:slash])
	if err != nil {
		return Prefix{}, err
	}
	bits, err := strconv.Atoi(s[slash+1:])
	if err != nil || bits < 0 || bits > 32 {
		return Prefix{}, fmt.Errorf("ipnet: invalid prefix length in %q", s)
	}
	if addr&mask(bits) != addr {
		return Prefix{}, fmt.Errorf("ipnet: prefix %q has host bits set", s)
	}
	return Prefix{Addr: addr, Bits: bits}, nil
}

func mask(bits int) Addr {
	if bits == 0 {
		return 0
	}
	return Addr(^uint32(0) << (32 - bits))
}

// String renders CIDR notation.
func (p Prefix) String() string { return fmt.Sprintf("%s/%d", p.Addr, p.Bits) }

// Contains reports whether a lies inside the prefix.
func (p Prefix) Contains(a Addr) bool { return a&mask(p.Bits) == p.Addr }

// Overlaps reports whether two prefixes share any address.
func (p Prefix) Overlaps(q Prefix) bool {
	if p.Bits <= q.Bits {
		return p.Contains(q.Addr)
	}
	return q.Contains(p.Addr)
}

// NumAddrs returns the number of addresses covered by the prefix.
func (p Prefix) NumAddrs() uint64 { return uint64(1) << (32 - p.Bits) }

// First returns the lowest address in the prefix.
func (p Prefix) First() Addr { return p.Addr }

// Last returns the highest address in the prefix.
func (p Prefix) Last() Addr { return p.Addr | ^mask(p.Bits) }

// Nth returns the n-th address in the prefix (0-based, wrapping within the
// prefix size).
func (p Prefix) Nth(n uint64) Addr {
	return p.Addr + Addr(n%p.NumAddrs())
}

// Allocator hands out disjoint prefixes of requested sizes from the
// globally-routable-looking space [1.0.0.0, 224.0.0.0), skipping the
// private and loopback ranges so synthetic addresses look plausible.
type Allocator struct {
	next uint64 // next free address as uint64 to detect exhaustion
}

// reservedRanges are skipped by the allocator.
var reservedRanges = []Prefix{
	{Addr: MakeAddr(10, 0, 0, 0), Bits: 8},
	{Addr: MakeAddr(127, 0, 0, 0), Bits: 8},
	{Addr: MakeAddr(169, 254, 0, 0), Bits: 16},
	{Addr: MakeAddr(172, 16, 0, 0), Bits: 12},
	{Addr: MakeAddr(192, 168, 0, 0), Bits: 16},
}

// NewAllocator returns an allocator starting at 1.0.0.0.
func NewAllocator() *Allocator {
	return &Allocator{next: uint64(MakeAddr(1, 0, 0, 0))}
}

// Alloc returns the next free prefix of the given length, or an error when
// the space is exhausted. Allocation is aligned to the prefix size.
func (al *Allocator) Alloc(bits int) (Prefix, error) {
	if bits < 8 || bits > 30 {
		return Prefix{}, fmt.Errorf("ipnet: unsupported allocation size /%d", bits)
	}
	size := uint64(1) << (32 - bits)
	for {
		start := (al.next + size - 1) / size * size // align
		if start+size > uint64(MakeAddr(224, 0, 0, 0)) {
			return Prefix{}, fmt.Errorf("ipnet: address space exhausted")
		}
		p := Prefix{Addr: Addr(start), Bits: bits}
		conflict := false
		for _, r := range reservedRanges {
			if p.Overlaps(r) {
				al.next = uint64(r.Last()) + 1
				conflict = true
				break
			}
		}
		if conflict {
			continue
		}
		al.next = start + size
		return p, nil
	}
}
