package pki

import (
	"encoding/binary"
	"math/bits"
)

// scalar is an integer mod n, the order of the P-256 base point, as four
// little-endian 64-bit limbs, always reduced into [0, n). Its arithmetic
// allocates nothing and, like the rest of the simulator, is
// variable-time.
type scalar [4]uint64

var (
	orderN  = scalar{0xf3b9cac2fc632551, 0xbce6faada7179e84, 0xffffffffffffffff, 0xffffffff00000000}
	orderRR = scalar{0x83244c95be79eea2, 0x4699799c49bd6fa6, 0x2845b2392b6bec59, 0x66e12d94f3d95620} // 2^512 mod n
)

// orderNInv is -n^-1 mod 2^64.
const orderNInv = 0xccd1c8aaee00bc4f

// setBytes sets z to the big-endian b, at most 32 bytes, reduced mod n,
// and reports whether b was already below n. One subtraction reduces
// any 256-bit value, because 2^256 < 2n.
func (z *scalar) setBytes(b []byte) bool {
	var buf [32]byte
	copy(buf[32-len(b):], b)
	for i := range z {
		z[i] = binary.BigEndian.Uint64(buf[24-8*i:])
	}
	var t scalar
	var borrow uint64
	for i := range t {
		t[i], borrow = bits.Sub64(z[i], orderN[i], borrow)
	}
	if borrow != 0 {
		return true
	}
	*z = t
	return false
}

// fillBytes writes z as 32 big-endian bytes.
func (z *scalar) fillBytes(b *[32]byte) {
	for i, w := range z {
		binary.BigEndian.PutUint64(b[24-8*i:], w)
	}
}

func (z *scalar) isZero() bool { return *z == scalar{} }

// add sets z = x + y mod n.
func (z *scalar) add(x, y *scalar) *scalar {
	var sum, t scalar
	var carry, borrow uint64
	for i := range sum {
		sum[i], carry = bits.Add64(x[i], y[i], carry)
	}
	for i := range t {
		t[i], borrow = bits.Sub64(sum[i], orderN[i], borrow)
	}
	if carry == 0 && borrow != 0 {
		*z = sum
	} else {
		*z = t
	}
	return z
}

// mul sets z = x·y mod n: two Montgomery multiplications, the second by
// R² to cancel the first's R⁻¹ (R = 2^256).
func (z *scalar) mul(x, y *scalar) *scalar {
	z.montMul(x, y)
	return z.montMul(z, &orderRR)
}

// montMul sets z = x·y·R⁻¹ mod n. It is ffdh's CIOS multiplication
// specialised to four limbs: each round adds x·y[i] and the multiple
// m·n that clears the low limb, then shifts down one limb.
func (z *scalar) montMul(x, y *scalar) *scalar {
	var t scalar
	var top uint64 // limb 4 of the running sum, always 0 or 1
	for _, yi := range y {
		hi, lo := bits.Mul64(x[0], yi)
		lo, cc := bits.Add64(lo, t[0], 0)
		c1 := hi + cc
		m := lo * orderNInv
		hi, lo2 := bits.Mul64(m, orderN[0])
		_, cc = bits.Add64(lo2, lo, 0)
		c2 := hi + cc
		for j := 1; j < 4; j++ {
			hi, lo = bits.Mul64(x[j], yi)
			lo, cc = bits.Add64(lo, t[j], 0)
			hi += cc
			lo, cc = bits.Add64(lo, c1, 0)
			c1 = hi + cc
			hi, lo2 = bits.Mul64(m, orderN[j])
			lo2, cc = bits.Add64(lo2, lo, 0)
			hi += cc
			t[j-1], cc = bits.Add64(lo2, c2, 0)
			c2 = hi + cc
		}
		s, cc1 := bits.Add64(top, c1, 0)
		t[3], cc = bits.Add64(s, c2, 0)
		top = cc1 + cc
	}
	// The sum is below 2n: subtract n once if it is at least n.
	var r scalar
	var b uint64
	for j := range r {
		r[j], b = bits.Sub64(t[j], orderN[j], b)
	}
	if top == 0 && b != 0 {
		*z = t
	} else {
		*z = r
	}
	return z
}

// inv sets z = x⁻¹ mod n, or 0 for x = 0. It runs a binary extended GCD
// of (n, x) that shifts out every trailing zero at once (Kaliski's
// almost-Montgomery inverse) with the invariants
//
//	n = u·s + v·r,  x·s ≡ v·2^k,  x·r ≡ -u·2^k  (mod n),
//
// which keep r and s below n without any reduction. The loop ends at
// u = v = gcd = 1, where s = x⁻¹·2^k; dividing out 2^k, 63 bits at a
// time, gives x⁻¹.
func (z *scalar) inv(x *scalar) *scalar {
	if x.isZero() {
		*z = scalar{}
		return z
	}
	u, v := orderN, *x
	r, s := scalar{}, scalar{1}
	k := shiftOut(&v, &r)
	for {
		switch {
		case u == v:
			for ; k > 63; k -= 63 {
				s.divPow2(63)
			}
			if k > 0 {
				s.divPow2(uint(k))
			}
			*z = s
			return z
		case less(&v, &u):
			sub(&u, &v)
			addTo(&r, &s)
			k += shiftOut(&u, &s)
		default:
			sub(&v, &u)
			addTo(&s, &r)
			k += shiftOut(&v, &r)
		}
	}
}

// divPow2 sets z = z / 2^k mod n for 1 ≤ k ≤ 63: adding m·n with
// m = -z·n⁻¹ mod 2^k clears the low k bits, and the sum is below
// n + (2^k - 1)·n, so shifted it is already below n.
func (z *scalar) divPow2(k uint) {
	m := (z[0] * orderNInv) & (1<<k - 1)
	var t [5]uint64
	var carry uint64
	for i := range z {
		hi, lo := bits.Mul64(m, orderN[i])
		lo, c := bits.Add64(lo, carry, 0)
		hi += c
		t[i], c = bits.Add64(z[i], lo, 0)
		carry = hi + c
	}
	t[4] = carry
	for i := range z {
		z[i] = t[i]>>k | t[i+1]<<(64-k)
	}
}

// shiftOut divides the nonzero u by 2^j, its largest power-of-two
// factor, multiplies c by 2^j, and returns j. The inverse's invariants
// keep c·2^j below n.
func shiftOut(u, c *scalar) int {
	j := 0
	for u[0] == 0 {
		u[0], u[1], u[2], u[3] = u[1], u[2], u[3], 0
		c[0], c[1], c[2], c[3] = 0, c[0], c[1], c[2]
		j += 64
	}
	t := uint(bits.TrailingZeros64(u[0]))
	if t == 0 {
		return j
	}
	for i := 0; i < 3; i++ {
		u[i] = u[i]>>t | u[i+1]<<(64-t)
	}
	u[3] >>= t
	for i := 3; i > 0; i-- {
		c[i] = c[i]<<t | c[i-1]>>(64-t)
	}
	c[0] <<= t
	return j + int(t)
}

func less(x, y *scalar) bool {
	for i := 3; i >= 0; i-- {
		if x[i] != y[i] {
			return x[i] < y[i]
		}
	}
	return false
}

// sub sets x -= y for x ≥ y.
func sub(x, y *scalar) {
	var b uint64
	for i := range x {
		x[i], b = bits.Sub64(x[i], y[i], b)
	}
}

// addTo sets x += y; the caller guarantees no overflow.
func addTo(x, y *scalar) {
	var c uint64
	for i := range x {
		x[i], c = bits.Add64(x[i], y[i], c)
	}
}
