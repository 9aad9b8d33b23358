package pki

import (
	"crypto/ecdh"
	"crypto/ecdsa"
	"crypto/ed25519"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/sha256"
	"crypto/sha512"
	"math/big"
	"sync"
	"testing"
	"time"
)

// agree requires VerifySKE to reach ecdsa.VerifyASN1's verdict on one
// input and returns that verdict.
func agree(t testing.TB, pub *ecdsa.PublicKey, digest, sig []byte) bool {
	t.Helper()
	want := ecdsa.VerifyASN1(pub, digest, sig)
	if got := VerifySKE(pub, digest, sig) == nil; got != want {
		t.Fatalf("VerifySKE accepts = %v, ecdsa.VerifyASN1 = %v\n  digest %x\n  sig    %x", got, want, digest, sig)
	}
	return want
}

// tablePub returns the public key of the shared test leaf, which IssueLeaf
// put in the key table.
func tablePub(t testing.TB) (*Certificate, *ecdsa.PublicKey) {
	t.Helper()
	crt := p256Cert(t)
	pub := crt.Key.Public().(*ecdsa.PublicKey)
	if _, ok := p256Keys.lookup(pub); !ok {
		t.Fatal("IssueLeaf did not record its P-256 key")
	}
	return crt, pub
}

// DER building blocks for hand-made signatures.

func derInt(v *big.Int) []byte { // minimal two's-complement body
	if v.Sign() >= 0 {
		b := v.Bytes()
		if len(b) == 0 || b[0]&0x80 != 0 {
			b = append([]byte{0}, b...)
		}
		return b
	}
	// v < 0: two's complement over enough bytes to keep the sign bit.
	mod := new(big.Int).Lsh(big.NewInt(1), uint(8*(len(v.Bytes())+1)))
	b := new(big.Int).Add(mod, v).Bytes()
	for len(b) > 1 && b[0] == 0xff && b[1]&0x80 != 0 {
		b = b[1:]
	}
	return b
}

func tlv(tag byte, body []byte) []byte {
	if len(body) < 128 {
		return append([]byte{tag, byte(len(body))}, body...)
	}
	return append([]byte{tag, 0x81, byte(len(body))}, body...)
}

func derSig(r, s []byte) []byte {
	return tlv(0x30, append(tlv(0x02, r), tlv(0x02, s)...))
}

func cat(bs ...[]byte) []byte {
	var out []byte
	for _, b := range bs {
		out = append(out, b...)
	}
	return out
}

// malformed derives signatures from a valid (r, s) that probe each
// parsing and range rule crypto/ecdsa applies.
func malformed(r, s *big.Int) [][]byte {
	n := elliptic.P256().Params().N
	one := big.NewInt(1)
	rb, sb := derInt(r), derInt(s)
	valid := derSig(rb, sb)
	var out [][]byte
	for _, v := range []*big.Int{
		big.NewInt(0), one, new(big.Int).Sub(n, one), n, new(big.Int).Add(n, one),
		new(big.Int).Add(r, n), new(big.Int).Lsh(one, 256),
	} {
		out = append(out, derSig(derInt(v), sb), derSig(rb, derInt(v)))
	}
	out = append(out,
		derSig(rb, derInt(new(big.Int).Sub(n, s))), // high s: also valid
		derSig(rb, derInt(new(big.Int).Add(s, n))), // 32 bytes when s is small
		derSig(sb, rb),
		derSig(rb, rb),
		derSig(derInt(new(big.Int).Neg(r)), sb), // negative
		derSig(rb, derInt(new(big.Int).Neg(s))),
		derSig(append([]byte{0}, rb...), sb), // non-minimal
		derSig(rb, append([]byte{0}, sb...)),
		derSig(append([]byte{0xff}, derInt(new(big.Int).Neg(r))...), sb),
		derSig(nil, sb),                                          // empty INTEGER
		cat([]byte{0x30, 0x81, byte(len(valid) - 2)}, valid[2:]), // long form below 128
		cat([]byte{0x30, 0x80}, valid[2:], []byte{0, 0}),         // indefinite length
		tlv(0x30, cat([]byte{0x02, 0x81, byte(len(rb))}, rb, tlv(0x02, sb))),
		tlv(0x30, cat(tlv(0x02, rb), tlv(0x02, sb), tlv(0x02, []byte{1}))), // third INTEGER
		tlv(0x30, cat(tlv(0x02, rb), tlv(0x02, sb), []byte{0})),            // trailing inside
		cat(valid, []byte{0}),                                              // trailing outside
		cat(valid, valid),
		cat([]byte{0x31}, valid[1:]), // SET, not SEQUENCE
		tlv(0x30, cat(tlv(0x03, rb), tlv(0x02, sb))),
		tlv(0x30, cat(tlv(0x02, rb))),
		tlv(0x30, nil),
		tlv(0x30, cat(tlv(0x02, derInt(new(big.Int).Lsh(r, 800))), tlv(0x02, sb))), // long-form INTEGER ≥ n
		nil,
	)
	for i := range valid { // every truncation
		out = append(out, valid[:i])
	}
	for i := 0; i < 8*len(valid); i++ { // every single-bit flip
		b := append([]byte(nil), valid...)
		b[i/8] ^= 1 << (i % 8)
		out = append(out, b)
	}
	return out
}

func sigInts(t testing.TB, sig []byte) (r, s *big.Int) {
	t.Helper()
	rs, ss, ok := parseSignature(sig)
	if !ok {
		t.Fatalf("signature %x does not parse", sig)
	}
	return rs.big(), ss.big()
}

func TestVerifySKEMatchesStdlibMalformed(t *testing.T) {
	crt, pub := tablePub(t)
	for i := 0; i < 8; i++ {
		digest := digestOf(i)
		sig, err := crt.SignSKE(DefaultRand, digest)
		if err != nil {
			t.Fatal(err)
		}
		r, s := sigInts(t, sig)
		accepted := 0
		for _, m := range malformed(r, s) {
			if agree(t, pub, digest, m) {
				accepted++
			}
		}
		if accepted != 1 { // the high-s twin
			t.Fatalf("accepted %d malformed variants, want only (r, n-s)", accepted)
		}
	}
	// With a small s, s + n fits in 32 bytes, so only the range check
	// rejects it.
	priv := crt.Key.(*ecdsa.PrivateKey)
	for _, sv := range []*big.Int{big.NewInt(1), big.NewInt(2), new(big.Int).Lsh(big.NewInt(1), 200)} {
		digest, sig := craftSig(t, priv, sv)
		if !agree(t, pub, digest, sig) {
			t.Fatalf("crafted signature with s = %x does not verify", sv)
		}
		for _, m := range malformed(sigInts(t, sig)) {
			agree(t, pub, digest, m)
		}
	}
}

// craftSig returns a digest and a valid signature on it with the given s.
// For a nonce k and r = x(k·G) mod n, the digest e = s·k - r·d makes
// (r, s) verify, because (e + r·d)·s⁻¹ = k.
func craftSig(t testing.TB, priv *ecdsa.PrivateKey, s *big.Int) (digest, sig []byte) {
	t.Helper()
	n := elliptic.P256().Params().N
	kb := sha256.Sum256(s.Bytes())
	k, err := ecdh.P256().NewPrivateKey(kb[:])
	if err != nil {
		t.Fatal(err)
	}
	r := new(big.Int).SetBytes(k.PublicKey().Bytes()[1:33])
	r.Mod(r, n)
	e := new(big.Int).Mul(s, new(big.Int).SetBytes(kb[:]))
	e.Sub(e, new(big.Int).Mul(r, priv.D)).Mod(e, n)
	return e.FillBytes(make([]byte, 32)), derSig(derInt(r), derInt(s))
}

// Digests of other widths follow ecdsa's hashToInt: the leftmost 256
// bits, reduced mod n.
func TestVerifySKEMatchesStdlibDigestWidths(t *testing.T) {
	crt, pub := tablePub(t)
	priv := crt.Key.(*ecdsa.PrivateKey)
	long := sha512.Sum512([]byte("wide"))
	ones := make([]byte, 32)
	for i := range ones {
		ones[i] = 0xff // above n
	}
	for _, digest := range [][]byte{nil, {1}, digestOf(1)[:20], long[:], ones, append(ones, 0xff)} {
		sig, err := ecdsa.SignASN1(rand.Reader, priv, digest)
		if err != nil {
			t.Fatal(err)
		}
		if !agree(t, pub, digest, sig) {
			t.Fatalf("stdlib signature over %d-byte digest does not verify", len(digest))
		}
		flipped := append([]byte{}, digest...)
		if len(flipped) > 0 {
			flipped[0] ^= 0x80
			agree(t, pub, flipped, sig)
		}
	}
}

// When e ≡ -r·d (mod n), u1·G + u2·Q is the point at infinity, which
// ecdsa rejects whatever s is.
func TestVerifySKEInfinityRejected(t *testing.T) {
	crt, pub := tablePub(t)
	d := crt.Key.(*ecdsa.PrivateKey).D
	n := elliptic.P256().Params().N
	for _, r := range []int64{1, 2, 12345} {
		e := new(big.Int).Mul(big.NewInt(r), d)
		e.Neg(e).Mod(e, n)
		digest := e.FillBytes(make([]byte, 32))
		sig := derSig(derInt(big.NewInt(r)), derInt(big.NewInt(7)))
		if agree(t, pub, digest, sig) {
			t.Fatalf("r = %d: accepted a signature whose point is at infinity", r)
		}
	}
}

func TestVerifySKEFallbacks(t *testing.T) {
	// A P-256 key this package did not generate takes ecdsa.VerifyASN1.
	priv, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := p256Keys.lookup(&priv.PublicKey); ok {
		t.Fatal("a key built outside pki is in the key table")
	}
	for i := 0; i < 4; i++ {
		digest := digestOf(i)
		sig, err := signP256(priv, DefaultRand, digest)
		if err != nil {
			t.Fatal(err)
		}
		if !agree(t, &priv.PublicKey, digest, sig) {
			t.Fatalf("fallback signature %d does not verify", i)
		}
		r, s := sigInts(t, sig)
		for _, m := range malformed(r, s)[:20] {
			agree(t, &priv.PublicKey, digest, m)
		}
		digest[0] ^= 1
		agree(t, &priv.PublicKey, digest, sig)
	}
	// So does a P-384 key.
	p384, err := ecdsa.GenerateKey(elliptic.P384(), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	sig, err := ecdsa.SignASN1(rand.Reader, p384, digestOf(0))
	if err != nil {
		t.Fatal(err)
	}
	if !agree(t, &p384.PublicKey, digestOf(0), sig) {
		t.Fatal("P-384 signature does not verify")
	}

	// RSA keys take rsa.VerifyPKCS1v15 (TestSignSKERSA); other key types
	// are refused.
	edPub, _, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	if VerifySKE(edPub, digestOf(0), sig) == nil {
		t.Fatal("accepted an Ed25519 key")
	}
}

// Leaves issued concurrently with verifications must neither race on the
// key table nor change any verdict.
func TestVerifySKEConcurrentIssue(t *testing.T) {
	root, err := NewRootCA("race root", ECDSAP256, DefaultRand)
	if err != nil {
		t.Fatal(err)
	}
	issue := func() *Certificate {
		crt, err := root.IssueLeaf([]string{"example.com"}, ECDSAP256, nb, na, DefaultRand)
		if err != nil {
			t.Error(err)
		}
		return crt
	}
	const issuers, perIssuer = 2, 16
	var wg sync.WaitGroup
	certs := make(chan *Certificate, issuers*perIssuer)
	for w := 0; w < issuers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perIssuer; i++ {
				certs <- issue()
			}
		}()
	}
	go func() { wg.Wait(); close(certs) }()
	var vg sync.WaitGroup
	for crt := range certs {
		if crt == nil {
			continue // issue reported the error
		}
		vg.Add(1)
		go func(crt *Certificate) {
			defer vg.Done()
			pub := crt.Key.Public().(*ecdsa.PublicKey)
			for i := 0; i < 4; i++ {
				digest := digestOf(i)
				sig, err := crt.SignSKE(DefaultRand, digest)
				if err != nil {
					t.Error(err)
					return
				}
				if err := VerifySKE(pub, digest, sig); err != nil {
					t.Errorf("concurrent verify: %v", err)
					return
				}
				digest[1] ^= 1
				if VerifySKE(pub, digest, sig) == nil {
					t.Error("concurrent verify accepted a flipped digest")
					return
				}
			}
		}(crt)
	}
	vg.Wait()
}

func TestKeyTableForgetsOldest(t *testing.T) {
	table := keyTable{max: 3}
	var keys []*ecdsa.PrivateKey
	for i := 0; i < 5; i++ {
		k, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, k)
		table.remember(k)
	}
	for i, k := range keys {
		d, ok := table.lookup(&k.PublicKey)
		if want := i >= 2; ok != want {
			t.Fatalf("key %d in table = %v, want %v", i, ok, want)
		}
		if ok && d.big().Cmp(k.D) != 0 {
			t.Fatalf("key %d maps to the wrong scalar", i)
		}
	}
	if len(table.d) != 3 || len(table.order) != 3 {
		t.Fatalf("table holds %d keys in %d slots, want 3", len(table.d), len(table.order))
	}
}

func TestRootStoreMemoHonoursValidity(t *testing.T) {
	root, err := NewRootCA("memo root", ECDSAP256, DefaultRand)
	if err != nil {
		t.Fatal(err)
	}
	leaf, err := root.IssueLeaf([]string{"example.com"}, ECDSAP256, nb, na, DefaultRand)
	if err != nil {
		t.Fatal(err)
	}
	day := 24 * time.Hour
	for _, order := range [][]time.Time{
		{nb.Add(day), na.Add(day), nb.Add(-day), nb.Add(2 * day), na.Add(time.Second)},
		{na.Add(day), nb.Add(day), na.Add(day)},
	} {
		store := NewRootStore(root)
		for _, at := range order {
			want := !at.Before(nb) && !at.After(na)
			if got := store.Verify(leaf.Chain, "example.com", at); got != want {
				t.Fatalf("Verify at %s = %v, want %v (sequence %v)", at, got, want, order)
			}
		}
	}
}

// fuzzKey is a fixed P-256 key in the key table, so signatures in the
// committed corpus stay valid from run to run.
var fuzzKey = sync.OnceValue(func() *ecdsa.PrivateKey {
	seed := sha256.Sum256([]byte("pki FuzzVerifySKE key"))
	k, err := ecdh.P256().NewPrivateKey(seed[:])
	if err != nil {
		panic(err)
	}
	q := k.PublicKey().Bytes()
	key := &ecdsa.PrivateKey{
		PublicKey: ecdsa.PublicKey{
			Curve: elliptic.P256(),
			X:     new(big.Int).SetBytes(q[1:33]),
			Y:     new(big.Int).SetBytes(q[33:]),
		},
		D: new(big.Int).SetBytes(seed[:]),
	}
	p256Keys.remember(key)
	return key
})

func FuzzVerifySKE(f *testing.F) {
	key := fuzzKey()
	digest := digestOf(0)
	sig, err := signP256(key, DefaultRand, digest)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(digest, sig)
	f.Fuzz(func(t *testing.T, digest, sig []byte) {
		if _, ok := p256Keys.lookup(&key.PublicKey); !ok {
			t.Fatal("fuzz key left the key table")
		}
		agree(t, &key.PublicKey, digest, sig)
	})
}

func BenchmarkVerifySKE(b *testing.B) {
	outside, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name string
		key  *ecdsa.PrivateKey
	}{
		{"table", p256Cert(b).Key.(*ecdsa.PrivateKey)},
		{"stdlib", outside},
	} {
		b.Run(bc.name, func(b *testing.B) {
			digest := digestOf(0)
			sig, err := signP256(bc.key, DefaultRand, digest)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := VerifySKE(&bc.key.PublicKey, digest, sig); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
