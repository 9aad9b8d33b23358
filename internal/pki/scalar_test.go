package pki

import (
	"crypto/elliptic"
	"math/big"
	"math/rand"
	"testing"
)

func (z *scalar) big() *big.Int {
	var b [32]byte
	z.fillBytes(&b)
	return new(big.Int).SetBytes(b[:])
}

func scalarOf(t *testing.T, v *big.Int) scalar {
	t.Helper()
	var z scalar
	if !z.setBytes(v.Bytes()) {
		t.Fatalf("%x is not below n", v)
	}
	return z
}

func TestScalarConstants(t *testing.T) {
	n := elliptic.P256().Params().N
	if orderN.big().Cmp(n) != 0 {
		t.Fatalf("orderN = %x, want %x", orderN.big(), n)
	}
	rr := new(big.Int).Lsh(big.NewInt(1), 512)
	if rr.Mod(rr, n); orderRR.big().Cmp(rr) != 0 {
		t.Fatalf("orderRR = %x, want %x", orderRR.big(), rr)
	}
	if orderNInv*orderN[0] != ^uint64(0) {
		t.Fatalf("orderNInv·n = %#x mod 2^64, want -1", orderNInv*orderN[0])
	}
	n62 := new(big.Int)
	for i := len(orderN62) - 1; i >= 0; i-- {
		n62.Lsh(n62, 62).Add(n62, big.NewInt(orderN62[i]))
	}
	if n62.Cmp(n) != 0 {
		t.Fatalf("orderN62 = %x, want %x", n62, n)
	}
	if p := orderNInv62 * uint64(orderN62[0]) & mask62; p != 1 {
		t.Fatalf("orderNInv62·n = %#x mod 2^62, want 1", p)
	}
}

// scalarEdges are values at and around the limb, sign-bit and modulus
// boundaries.
func scalarEdges() []*big.Int {
	n := elliptic.P256().Params().N
	one := big.NewInt(1)
	pow := func(k uint) *big.Int { return new(big.Int).Lsh(one, k) }
	vals := []*big.Int{
		big.NewInt(0), big.NewInt(1), big.NewInt(2), big.NewInt(3),
		new(big.Int).Sub(n, one), new(big.Int).Sub(n, big.NewInt(2)),
		new(big.Int).Rsh(n, 1), new(big.Int).Add(new(big.Int).Rsh(n, 1), one),
		new(big.Int).Sub(pow(256), n), // 2^256 mod n
	}
	for _, k := range []uint{63, 64, 65, 127, 128, 191, 192, 255} {
		vals = append(vals, pow(k), new(big.Int).Sub(pow(k), one))
	}
	return vals
}

func randomBelowN(rng *rand.Rand) *big.Int {
	n := elliptic.P256().Params().N
	// Half the draws have their top limbs cleared, so small values and
	// long runs of zero bits get covered too.
	v := new(big.Int).Rand(rng, n)
	if rng.Intn(2) == 0 {
		v.Rsh(v, uint(rng.Intn(256)))
	}
	return v
}

func checkScalarOps(t *testing.T, a, b *big.Int) {
	t.Helper()
	n := elliptic.P256().Params().N
	x, y := scalarOf(t, a), scalarOf(t, b)
	var z scalar
	if want := new(big.Int).Add(a, b); z.add(&x, &y).big().Cmp(want.Mod(want, n)) != 0 {
		t.Fatalf("%x + %x = %x, want %x", a, b, z.big(), want)
	}
	if want := new(big.Int).Mul(a, b); z.mul(&x, &y).big().Cmp(want.Mod(want, n)) != 0 {
		t.Fatalf("%x · %x = %x, want %x", a, b, z.big(), want)
	}
	want := new(big.Int).ModInverse(a, n)
	if want == nil {
		want = new(big.Int) // a = 0
	}
	if z.inv(&x).big().Cmp(want) != 0 {
		t.Fatalf("%x⁻¹ = %x, want %x", a, z.big(), want)
	}
	// Results may alias their operands.
	z = x
	if z.mul(&z, &z).big().Cmp(new(big.Int).Mod(new(big.Int).Mul(a, a), n)) != 0 {
		t.Fatalf("aliased %x² = %x", a, z.big())
	}
}

func TestScalarMatchesBigEdges(t *testing.T) {
	edges := scalarEdges()
	for _, a := range edges {
		for _, b := range edges {
			checkScalarOps(t, a, b)
		}
	}
}

func TestScalarMatchesBigRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10000; i++ {
		checkScalarOps(t, randomBelowN(rng), randomBelowN(rng))
	}
}

// TestScalarInvMatchesBig checks the safegcd inverse against math/big
// on 100k random scalars: half of full width, half with random runs of
// high zero bits. The edge values are in TestScalarMatchesBigEdges.
func TestScalarInvMatchesBig(t *testing.T) {
	n := elliptic.P256().Params().N
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 100000; i++ {
		a := randomBelowN(rng)
		want := new(big.Int).ModInverse(a, n)
		if want == nil {
			want = new(big.Int)
		}
		var z scalar
		if x := scalarOf(t, a); z.inv(&x).big().Cmp(want) != 0 {
			t.Fatalf("%x⁻¹ = %x, want %x", a, z.big(), want)
		}
	}
}

func TestMulModOrderMatchesBig(t *testing.T) {
	n := elliptic.P256().Params().N
	rng := rand.New(rand.NewSource(5))
	vals := scalarEdges()
	for i := 0; i < 1000; i++ {
		vals = append(vals, randomBelowN(rng))
	}
	for i, a := range vals {
		b := vals[(7*i+3)%len(vals)]
		var got [32]byte
		MulModOrder(&got, a.Bytes(), b.FillBytes(make([]byte, 32)))
		want := new(big.Int).Mul(a, b)
		if want.Mod(want, n); new(big.Int).SetBytes(got[:]).Cmp(want) != 0 {
			t.Fatalf("MulModOrder(%x, %x) = %x, want %x", a, b, got, want)
		}
	}
}

func TestScalarSetBytesReduces(t *testing.T) {
	n := elliptic.P256().Params().N
	one := big.NewInt(1)
	max := new(big.Int).Sub(new(big.Int).Lsh(one, 256), one)
	vals := append(scalarEdges(), n, new(big.Int).Add(n, one), max)
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 1000; i++ {
		vals = append(vals, new(big.Int).Rand(rng, new(big.Int).Add(max, one)))
	}
	for _, v := range vals {
		// The minimal encoding and the zero-padded one must agree.
		for _, width := range []int{len(v.Bytes()), 32} {
			b := make([]byte, width)
			v.FillBytes(b)
			var z scalar
			below := z.setBytes(b)
			if want := v.Cmp(n) < 0; below != want {
				t.Fatalf("setBytes(%x) reports below n = %v", b, below)
			}
			if want := new(big.Int).Mod(v, n); z.big().Cmp(want) != 0 {
				t.Fatalf("setBytes(%x) = %x, want %x", b, z.big(), want)
			}
		}
	}
}

func TestScalarAllocationFree(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var b [32]byte
	randomBelowN(rng).FillBytes(b[:])
	var x, y, z scalar
	x.setBytes(b[:])
	y.setBytes(b[5:])
	if n := testing.AllocsPerRun(100, func() {
		z.setBytes(b[:])
		z.add(&x, &y).mul(&z, &y).inv(&z).fillBytes(&b)
		MulModOrder(&b, b[:], b[3:])
	}); n != 0 {
		t.Fatalf("scalar arithmetic allocates %v times per run", n)
	}
}
