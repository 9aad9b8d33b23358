package ffdh

import (
	"math/big"
	"math/rand"
	"sync"
	"testing"
)

// group1024 is a derived 1024-bit group: a second limb count and a table
// twice as deep as the 512-bit groups'.
var group1024 = sync.OnceValue(func() *Group {
	return &Group{P: derivePrime("tlsshortcuts-ffdh-test-1024", 1024), G: big.NewInt(2)}
})

// exponents returns the differential cases for g: the edges of the
// exponent range, values wider than the table, window-boundary bit
// patterns and random full-width exponents.
func exponents(g *Group, random int) []*big.Int {
	one := big.NewInt(1)
	pm1 := new(big.Int).Sub(g.P, one)
	bitsP := g.P.BitLen()
	xs := []*big.Int{
		big.NewInt(0), big.NewInt(1), big.NewInt(2), big.NewInt(15), big.NewInt(16), big.NewInt(17),
		new(big.Int).Sub(g.P, big.NewInt(2)),
		pm1,
		new(big.Int).Set(g.P),
		new(big.Int).Add(g.P, one),
		new(big.Int).Lsh(g.P, 3),
		new(big.Int).Lsh(one, uint(bitsP)),
		new(big.Int).Sub(new(big.Int).Lsh(one, uint(bitsP)), one), // all ones, wider than P
		new(big.Int).Lsh(one, uint(bitsP+64)),
		big.NewInt(-1),
		new(big.Int).Neg(g.P),
	}
	for w := 0; w < bitsP; w += 4 {
		// A lone set bit at each window edge, the window full, and the
		// last bit of the window below.
		xs = append(xs,
			new(big.Int).Lsh(one, uint(w)),
			new(big.Int).Lsh(big.NewInt(0xF), uint(w)),
		)
		if w > 0 {
			xs = append(xs, new(big.Int).Lsh(one, uint(w-1)))
		}
	}
	// Every window set to the same digit, for each digit.
	for d := int64(1); d < 16; d++ {
		x := new(big.Int)
		for w := 0; w+4 <= bitsP; w += 4 {
			x.Or(x, new(big.Int).Lsh(big.NewInt(d), uint(w)))
		}
		xs = append(xs, x.Mod(x, g.P))
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < random; i++ {
		xs = append(xs, new(big.Int).Rand(rng, g.P))
	}
	return xs
}

func TestPublicMatchesExp(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *Group
	}{
		{"TestGroup512", TestGroup512()},
		{"ExportGroup512", ExportGroup512()},
		{"derived1024", group1024()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, x := range exponents(tc.g, 1000) {
				want := new(big.Int).Exp(tc.g.G, x, tc.g.P)
				if got := tc.g.Public(x); got.Cmp(want) != 0 {
					t.Fatalf("Public(%x) = %x, want %x", x, got, want)
				}
			}
		})
	}
}

func TestPublicDoesNotModifyExponent(t *testing.T) {
	g := TestGroup512()
	x := new(big.Int).Lsh(g.P, 2)
	want := new(big.Int).Set(x)
	g.Public(x)
	if x.Cmp(want) != 0 {
		t.Fatalf("Public changed its argument to %x", x)
	}
}

// TestPublicConcurrentFirstUse races the table build: several goroutines
// call Public on a group none has used, and all must agree with Exp. Run
// it under -race.
func TestPublicConcurrentFirstUse(t *testing.T) {
	g := &Group{P: TestGroup512().P, G: big.NewInt(2)}
	x := g.PrivateFromSeed([]byte("concurrent"))
	want := new(big.Int).Exp(g.G, x, g.P)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			if got := g.Public(x); got.Cmp(want) != 0 {
				t.Errorf("Public = %x, want %x", got, want)
			}
		}()
	}
	close(start)
	wg.Wait()
}

func TestSharedAgrees(t *testing.T) {
	g := TestGroup512()
	a := g.PrivateFromSeed([]byte("a"))
	b := g.PrivateFromSeed([]byte("b"))
	ab, err := g.Shared(a, g.Public(b))
	if err != nil {
		t.Fatal(err)
	}
	ba, err := g.Shared(b, g.Public(a))
	if err != nil {
		t.Fatal(err)
	}
	if new(big.Int).SetBytes(ab).Cmp(new(big.Int).SetBytes(ba)) != 0 {
		t.Fatal("shared secrets differ")
	}
	if len(ab) > 0 && ab[0] == 0 {
		t.Fatal("Shared kept a leading zero")
	}
	if _, err := g.Shared(a, g.P); err == nil {
		t.Fatal("Shared accepted a peer value equal to P")
	}
}

var sink *big.Int

func BenchmarkGroupPublic(b *testing.B) {
	g := TestGroup512()
	x := g.PrivateFromSeed([]byte("bench"))
	g.Public(x) // build the table outside the timed region
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink = g.Public(x)
	}
}

func BenchmarkGroupShared(b *testing.B) {
	g := TestGroup512()
	x := g.PrivateFromSeed([]byte("bench"))
	peer := g.Public(g.PrivateFromSeed([]byte("peer")))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.Shared(x, peer); err != nil {
			b.Fatal(err)
		}
	}
}
