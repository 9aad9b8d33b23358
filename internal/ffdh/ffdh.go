// Package ffdh implements finite-field Diffie-Hellman for the DHE key
// exchange. The simulated population uses a deterministic 512-bit group by
// default (DESIGN.md: exponent reuse/longevity does not depend on group
// size); the group is derived once, reproducibly, from a fixed seed.
package ffdh

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/big"
	"math/bits"
	"sync"
)

// Group is a DH group (odd prime modulus and generator).
type Group struct {
	P *big.Int
	G *big.Int

	paramOnce sync.Once
	pBytes    []byte
	gBytes    []byte

	baseOnce sync.Once
	base     *fixedBase

	privOnce sync.Once
	pMinus3  *big.Int // PrivateFromSeed's clamp modulus
}

// ParamBytes returns the big-endian encodings of P and G, computed once
// per group — the server key-exchange message carries them on every full
// handshake. Callers must not modify the returned slices.
func (g *Group) ParamBytes() (p, gen []byte) {
	g.paramOnce.Do(func() {
		g.pBytes = g.P.Bytes()
		g.gBytes = g.G.Bytes()
	})
	return g.pBytes, g.gBytes
}

var (
	testOnce  sync.Once
	testGroup *Group
)

// TestGroup512 returns the deterministic 512-bit group used by the
// simulated population. It is generated once per process from a fixed seed
// stream, so every run of every binary agrees on the parameters.
func TestGroup512() *Group {
	testOnce.Do(func() {
		testGroup = &Group{P: derivePrime("tlsshortcuts-ffdh-512", 512), G: big.NewInt(2)}
	})
	return testGroup
}

var (
	exportOnce  sync.Once
	exportGroup *Group
)

// ExportGroup512 returns the deterministic "export-grade" 512-bit group
// used by the weak-crypto population profiles. It stands in for the
// small set of widely shared export primes of the Logjam attack: every
// domain configured with it serves the same modulus, so one
// precomputation amortizes across all of them. It is distinct from
// TestGroup512 (the baseline group), which models parameter *reuse*
// without being in any attacker's known-weak registry.
func ExportGroup512() *Group {
	exportOnce.Do(func() {
		exportGroup = &Group{P: derivePrime("tlsshortcuts-ffdh-export-512", 512), G: big.NewInt(2)}
	})
	return exportGroup
}

// derivePrime expands seed||counter through SHA-256 until the candidate
// (top two bits and low bit forced) passes Miller-Rabin.
func derivePrime(seed string, bits int) *big.Int {
	buf := make([]byte, bits/8)
	for ctr := uint64(0); ; ctr++ {
		for off := 0; off < len(buf); off += sha256.Size {
			h := sha256.New()
			h.Write([]byte(seed))
			var c [16]byte
			binary.BigEndian.PutUint64(c[:8], ctr)
			binary.BigEndian.PutUint64(c[8:], uint64(off))
			h.Write(c[:])
			copy(buf[off:], h.Sum(nil))
		}
		buf[0] |= 0xC0
		buf[len(buf)-1] |= 1
		p := new(big.Int).SetBytes(buf)
		if p.ProbablyPrime(20) {
			return p
		}
	}
}

// PrivateFromSeed derives a deterministic private exponent from arbitrary
// seed material — the mechanism behind epoch-based KEX value reuse. The
// hashes run on the stack, and only the returned exponent is allocated
// unless the clamp has to reduce it.
func (g *Group) PrivateFromSeed(seed []byte) *big.Int {
	var mb [len("ffdh-priv-1:") + 32]byte
	msg := append(append(mb[:0], "ffdh-priv-1:"...), seed...)
	var h [2 * sha256.Size]byte
	*(*[sha256.Size]byte)(h[:]) = sha256.Sum256(msg)
	copy(msg, "ffdh-priv-2:")
	*(*[sha256.Size]byte)(h[sha256.Size:]) = sha256.Sum256(msg)
	x := new(big.Int).SetBytes(h[:])
	// Clamp into [2, P-2].
	g.privOnce.Do(func() { g.pMinus3 = new(big.Int).Sub(g.P, big.NewInt(3)) })
	if x.Cmp(g.pMinus3) >= 0 {
		x.Mod(x, g.pMinus3)
	}
	return x.Add(x, big.NewInt(2))
}

// Public computes g^x mod p from the group's fixed-base table, which is
// built on first use. Exponents wider than the modulus, or negative, are
// first reduced mod P-1 (g^(P-1) = 1 for prime P). The result equals
// new(big.Int).Exp(g.G, x, g.P).
func (g *Group) Public(x *big.Int) *big.Int {
	g.baseOnce.Do(func() { g.base = newFixedBase(g.P, g.G) })
	return g.base.exp(x)
}

// ValidPublic reports whether y is an acceptable peer value for the
// modulus p: 1 < y < p-1 (RFC 7919 §5.1). A peer sending 0, 1 or p-1
// would fix the shared secret at 0, 1 or ±1 whatever the private
// exponent, and a value of p or more is not reduced mod p.
func ValidPublic(p, y *big.Int) bool {
	return y.Cmp(big.NewInt(1)) > 0 && new(big.Int).Add(y, big.NewInt(1)).Cmp(p) < 0
}

// Shared computes peer^x mod p and returns its big-endian encoding with
// leading zeros stripped, as the TLS 1.2 premaster (RFC 5246 §8.1.2).
func (g *Group) Shared(x, peer *big.Int) ([]byte, error) {
	if !ValidPublic(g.P, peer) {
		return nil, fmt.Errorf("ffdh: peer value out of range")
	}
	s := new(big.Int).Exp(peer, x, g.P)
	return s.Bytes(), nil
}

// SharedFromExponents returns the premaster Shared(x, Public(y)) gives
// for private exponents x and y of this group: (g^y)^x = g^(x·y mod
// P-1), from the fixed-base table, at about a third of the cost of the
// modexp.
func (g *Group) SharedFromExponents(x, y *big.Int) []byte {
	return g.Public(new(big.Int).Mul(x, y)).Bytes()
}

// Bytes returns v left-padded to the group's modulus width.
func (g *Group) Bytes(v *big.Int) []byte {
	out := make([]byte, (g.P.BitLen()+7)/8)
	v.FillBytes(out)
	return out
}

// fixedBase holds g^(d·16^i) mod P in Montgomery form for every 4-bit
// window i of a modulus-wide exponent and every nonzero digit d, so g^x is
// one Montgomery multiplication per nonzero window and no squarings. Every
// domain of a group serves the same generator, so one table per group
// pays for itself after a handful of handshakes. The arithmetic is
// variable-time, as big.Int.Exp's is.
type fixedBase struct {
	p     []uint64 // modulus, little-endian 64-bit limbs
	pInv  uint64   // -P^-1 mod 2^64
	wins  int      // 4-bit windows covered: ceil(P.BitLen()/4)
	order *big.Int // P-1, the reduction modulus for wide exponents
	tab   []uint64 // wins × 15 entries × len(p) limbs; entry (i, d) is g^(d·16^i)·R
}

func newFixedBase(p, gen *big.Int) *fixedBase {
	n := (p.BitLen() + 63) / 64
	f := &fixedBase{
		p:     limbs(p, n),
		wins:  (p.BitLen() + 3) / 4,
		order: new(big.Int).Sub(p, big.NewInt(1)),
	}
	// Newton iteration for P^-1 mod 2^64: P is its own inverse mod 8 (P
	// odd), and each step doubles the number of correct low bits.
	inv := f.p[0]
	for i := 0; i < 5; i++ {
		inv *= 2 - f.p[0]*inv
	}
	f.pInv = -inv
	r := new(big.Int).Lsh(big.NewInt(1), uint(64*n))
	gm := limbs(new(big.Int).Mod(new(big.Int).Mul(gen, r), p), n)

	f.tab = make([]uint64, f.wins*15*n)
	t := make([]uint64, n)
	for i := 0; i < f.wins; i++ {
		row := f.tab[i*15*n:]
		copy(row[:n], gm) // g^(16^i)
		for d := 1; d < 15; d++ {
			f.mul(row[d*n:(d+1)*n], row[(d-1)*n:d*n], gm, t)
		}
		f.mul(gm, row[14*n:15*n], gm, t) // g^(16^(i+1)) = g^(15·16^i)·g^(16^i)
	}
	return f
}

// expStackLimbs is the widest modulus, in 64-bit limbs, whose exp
// scratch lives on the stack: 512 bits, the population's groups.
const expStackLimbs = 8

// exp returns g^x mod P.
func (f *fixedBase) exp(x *big.Int) *big.Int {
	if x.Sign() < 0 || x.BitLen() > 4*f.wins {
		x = new(big.Int).Mod(x, f.order)
	}
	n := len(f.p)
	// Scratch for moduli up to expStackLimbs limbs stays on the stack.
	var bufs [8 * expStackLimbs]byte
	var scratchs [3 * expStackLimbs]uint64
	buf, scratch := bufs[:], scratchs[:] // exponent in, result out; limbs
	if n > expStackLimbs {
		buf, scratch = make([]byte, 8*n), make([]uint64, 3*n)
	}
	buf, scratch = buf[:8*n], scratch[:3*n]
	x.FillBytes(buf)
	acc, one, t := scratch[:n], scratch[n:2*n], scratch[2*n:]
	started := false
	for i := 0; i < f.wins; i++ {
		d := int(buf[len(buf)-1-i/2]>>(4*(i&1))) & 0xF
		if d == 0 {
			continue
		}
		e := f.tab[(i*15+d-1)*n : (i*15+d)*n]
		if started {
			f.mul(acc, acc, e, t)
		} else {
			copy(acc, e)
			started = true
		}
	}
	if !started {
		return big.NewInt(1) // x ≡ 0
	}
	one[0] = 1
	f.mul(acc, acc, one, t) // leave Montgomery form: acc·1·R^-1
	for i, w := range acc {
		binary.BigEndian.PutUint64(buf[len(buf)-8*(i+1):], w)
	}
	return new(big.Int).SetBytes(buf)
}

// mul sets z = x·y·R^-1 mod P for x, y < P, using t (n limbs) as
// scratch. z may alias x or y. Each round of the outer loop adds x·y[i]
// and the multiple m·P that clears the low limb, then shifts down one
// limb (CIOS Montgomery multiplication with the two inner loops fused).
func (f *fixedBase) mul(z, x, y, t []uint64) {
	p := f.p
	x, y, z, t = x[:len(p)], y[:len(p)], z[:len(p)], t[:len(p)]
	clear(t)
	var top uint64 // limb n of the running sum, always 0 or 1
	for _, yi := range y {
		hi, lo := bits.Mul64(x[0], yi)
		lo, cc := bits.Add64(lo, t[0], 0)
		c1 := hi + cc
		m := lo * f.pInv
		hi, lo2 := bits.Mul64(m, p[0])
		_, cc = bits.Add64(lo2, lo, 0)
		c2 := hi + cc
		for j := 1; j < len(p); j++ {
			hi, lo = bits.Mul64(x[j], yi)
			lo, cc = bits.Add64(lo, t[j], 0)
			hi += cc
			lo, cc = bits.Add64(lo, c1, 0)
			c1 = hi + cc
			hi, lo2 = bits.Mul64(m, p[j])
			lo2, cc = bits.Add64(lo2, lo, 0)
			hi += cc
			t[j-1], cc = bits.Add64(lo2, c2, 0)
			c2 = hi + cc
		}
		s, cc1 := bits.Add64(top, c1, 0)
		t[len(t)-1], cc = bits.Add64(s, c2, 0)
		top = cc1 + cc
	}
	// The sum is below 2P: subtract P once if it is at least P.
	var b uint64
	for j, pj := range p {
		z[j], b = bits.Sub64(t[j], pj, b)
	}
	if top == 0 && b != 0 {
		copy(z, t)
	}
}

// limbs returns v as n little-endian 64-bit limbs; v must fit.
func limbs(v *big.Int, n int) []uint64 {
	buf := make([]byte, 8*n)
	v.FillBytes(buf)
	out := make([]uint64, n)
	for i := range out {
		out[i] = binary.BigEndian.Uint64(buf[len(buf)-8*(i+1):])
	}
	return out
}
