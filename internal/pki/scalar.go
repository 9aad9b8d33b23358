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

// MulModOrder sets dst to a·b mod n, n the order of the P-256 base
// point, for big-endian a and b of at most 32 bytes each. It allocates
// nothing.
func MulModOrder(dst *[32]byte, a, b []byte) {
	var x, y scalar
	x.setBytes(a)
	y.setBytes(b)
	x.mul(&x, &y).fillBytes(dst)
}

// inv sets z = x⁻¹ mod n, or 0 for x = 0. It is Bernstein and Yang's
// safegcd (https://eprint.iacr.org/2019/266) in the variable-time form
// of libsecp256k1's modinv64_var. The state is (eta, f, g, d, e), from
// (-1, n, x, 0, 1), with d·x ≡ f and e·x ≡ g (mod n) throughout. Each
// round runs 62 divsteps on the low 64 bits of f and g alone, which
// decide them, and collects them in a transition matrix (divsteps62);
// the matrix then takes the full f and g, and d and e mod n, 62
// divsteps on (updateFG, updateDE). All four are held as five signed
// 62-bit limbs. The loop ends at g = 0, where f = ±gcd(n, x) = ±1, so
// ±d is the inverse. Like the rest of the simulator it is not hardened
// against timing side channels.
func (z *scalar) inv(x *scalar) *scalar {
	if x.isZero() {
		*z = scalar{}
		return z
	}
	d, e := signed62{}, signed62{1}
	f, g := orderN62, x.signed62()
	eta, n := int64(-1), len(f) // n: the limbs of f and g still in use
	for {
		var t transition
		eta = divsteps62(eta, uint64(f[0]), uint64(g[0]), &t)
		updateDE(&d, &e, &t)
		updateFG(n, &f, &g, &t)
		if g[0] == 0 && isZero62(g[1:n]) {
			break
		}
		// While the top limbs of f and g are both 0 or -1, fold their
		// sign into the limb below and drop them.
		if fn, gn := f[n-1], g[n-1]; n > 1 && fn == fn>>63 && gn == gn>>63 {
			f[n-2] |= int64(uint64(fn) << 62)
			g[n-2] |= int64(uint64(gn) << 62)
			n--
		}
	}
	z.setSigned62(&d, f[n-1] < 0)
	return z
}

// signed62 is an integer as five signed limbs of 62 bits, least
// significant first: Σ v[i]·2^(62i). Between rounds of inv every limb
// but the top one is in [0, 2^62).
type signed62 [5]int64

const mask62 = 1<<62 - 1

// orderN62 is n as a signed62, and orderNInv62 is n⁻¹ mod 2^62.
var orderN62 = orderN.signed62()

const orderNInv62 = (1<<64 - orderNInv) & mask62

func (x *scalar) signed62() signed62 {
	return signed62{
		int64(x[0] & mask62),
		int64((x[0]>>62 | x[1]<<2) & mask62),
		int64((x[1]>>60 | x[2]<<4) & mask62),
		int64((x[2]>>58 | x[3]<<6) & mask62),
		int64(x[3] >> 56),
	}
}

func isZero62(v []int64) bool {
	for _, w := range v {
		if w != 0 {
			return false
		}
	}
	return true
}

// setSigned62 sets z to d mod n, negated when negate is set, for d in
// (-2n, n) with limbs in (-2^62, 2^62): adding n when d is negative,
// then negating, gives (-n, n), and adding n once more gives [0, n).
func (z *scalar) setSigned62(d *signed62, negate bool) {
	v := *d
	if v[4] < 0 {
		v.addN()
	}
	if negate {
		for i := range v {
			v[i] = -v[i]
		}
	}
	v.carry()
	if v[4] < 0 {
		v.addN()
		v.carry()
	}
	z[0] = uint64(v[0]) | uint64(v[1])<<62
	z[1] = uint64(v[1])>>2 | uint64(v[2])<<60
	z[2] = uint64(v[2])>>4 | uint64(v[3])<<58
	z[3] = uint64(v[3])>>6 | uint64(v[4])<<56
}

func (v *signed62) addN() {
	for i := range v {
		v[i] += orderN62[i]
	}
}

// carry moves each limb's bits above the low 62 into the next limb, so
// that all but the top one are in [0, 2^62).
func (v *signed62) carry() {
	for i := 0; i < 4; i++ {
		v[i+1] += v[i] >> 62
		v[i] &= mask62
	}
}

// transition is the matrix of 62 divsteps, scaled by 2^62: it takes
// (f, g) to (u·f + v·g, q·f + r·g) / 2^62.
type transition struct{ u, v, q, r int64 }

// divsteps62 runs 62 divsteps from (eta, f, g) on the low 64 bits of f
// and g, f odd, into t, and returns the new eta. A run of zero low bits
// of g is shifted out at once, and each odd step cancels up to six low
// bits of g with one multiple of f, as libsecp256k1 does.
func divsteps62(eta int64, f, g uint64, t *transition) int64 {
	u, v, q, r := uint64(1), uint64(0), uint64(0), uint64(1)
	for i := 62; ; {
		// Shift out g's zero low bits, at most i of them: each is a
		// divstep that halves g.
		zeros := bits.TrailingZeros64(g | ^uint64(0)<<uint(i))
		g >>= zeros
		u <<= zeros
		v <<= zeros
		eta -= int64(zeros)
		i -= zeros
		if i == 0 {
			break
		}
		// f and g are odd. With eta negative the step swaps them (and
		// negates the old f). Then w·f is added to g, for the w that
		// clears g's low bits: min(eta+1, i) of them, and at most 6 (4
		// without the swap, where eta tends to be small).
		var w, m uint64
		if eta < 0 {
			eta = -eta
			f, g = g, -f
			u, q = q, -u
			v, r = r, -v
			w, m = f*g*(f*f-2), 63
		} else {
			w, m = -(f+((f+1)&4)<<1)*g, 15
		}
		w &= m & (^uint64(0) >> (64 - min(int(eta)+1, i)))
		g += f * w
		q += u * w
		r += v * w
	}
	t.u, t.v, t.q, t.r = int64(u), int64(v), int64(q), int64(r)
	return eta
}

// updateDE sets (d, e) to t·(d, e) / 2^62 mod n. A multiple of n is
// added to each product first: the one that undoes a negative d or e,
// and the one that clears the 62 low bits, so the division is a shift
// and the results stay in (-2n, n).
func updateDE(d, e *signed62, t *transition) {
	sd, se := d[4]>>63, e[4]>>63
	md := t.u&sd + t.v&se
	me := t.q&sd + t.r&se
	var cd, ce i128
	cd.addMul(t.u, d[0])
	cd.addMul(t.v, e[0])
	ce.addMul(t.q, d[0])
	ce.addMul(t.r, e[0])
	md -= int64((orderNInv62*cd.lo + uint64(md)) & mask62)
	me -= int64((orderNInv62*ce.lo + uint64(me)) & mask62)
	cd.addMul(orderN62[0], md)
	ce.addMul(orderN62[0], me)
	cd.shr62()
	ce.shr62()
	for i := 1; i < 5; i++ {
		cd.addMul(t.u, d[i])
		cd.addMul(t.v, e[i])
		cd.addMul(orderN62[i], md)
		ce.addMul(t.q, d[i])
		ce.addMul(t.r, e[i])
		ce.addMul(orderN62[i], me)
		d[i-1], e[i-1] = int64(cd.lo&mask62), int64(ce.lo&mask62)
		cd.shr62()
		ce.shr62()
	}
	d[4], e[4] = int64(cd.lo), int64(ce.lo)
}

// updateFG sets (f, g) to t·(f, g) / 2^62 on their n low limbs. The 62
// divsteps made the low 62 bits of both products zero.
func updateFG(n int, f, g *signed62, t *transition) {
	var cf, cg i128
	cf.addMul(t.u, f[0])
	cf.addMul(t.v, g[0])
	cg.addMul(t.q, f[0])
	cg.addMul(t.r, g[0])
	cf.shr62()
	cg.shr62()
	for i := 1; i < n; i++ {
		cf.addMul(t.u, f[i])
		cf.addMul(t.v, g[i])
		cg.addMul(t.q, f[i])
		cg.addMul(t.r, g[i])
		f[i-1], g[i-1] = int64(cf.lo&mask62), int64(cg.lo&mask62)
		cf.shr62()
		cg.shr62()
	}
	f[n-1], g[n-1] = int64(cf.lo), int64(cg.lo)
}

// i128 is a signed 128-bit accumulator in two's complement.
type i128 struct{ hi, lo uint64 }

// addMul sets a += x·y.
func (a *i128) addMul(x, y int64) {
	hi, lo := bits.Mul64(uint64(x), uint64(y))
	// The unsigned product counts a negative factor as itself plus 2^64.
	hi -= uint64(x>>63)&uint64(y) + uint64(y>>63)&uint64(x)
	var c uint64
	a.lo, c = bits.Add64(a.lo, lo, 0)
	a.hi += hi + c
}

// shr62 sets a to a >> 62, rounding toward minus infinity.
func (a *i128) shr62() {
	a.lo = a.lo>>62 | a.hi<<2
	a.hi = uint64(int64(a.hi) >> 62)
}
