package pki

import (
	"bytes"
	"crypto"
	"crypto/ecdh"
	"crypto/ecdsa"
	"crypto/ed25519"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/sha256"
	"crypto/sha512"
	"crypto/x509"
	"math/big"
	mrand "math/rand"
	"sync"
	"testing"
	"time"

	"tlsshortcuts/internal/telemetry"
)

// agree requires h.Verify (h may be nil) to reach ecdsa.VerifyASN1's
// verdict on one input and returns that verdict.
func agree(t testing.TB, h *SKENonce, leaf *x509.Certificate, digest, sig []byte) bool {
	t.Helper()
	want := ecdsa.VerifyASN1(leaf.PublicKey.(*ecdsa.PublicKey), digest, sig)
	if got := h.Verify(leaf, digest, sig) == nil; got != want {
		t.Fatalf("Verify accepts = %v, ecdsa.VerifyASN1 = %v\n  digest %x\n  sig    %x", got, want, digest, sig)
	}
	return want
}

// bare wraps a key that has no certificate for Verify.
func bare(pub crypto.PublicKey) *x509.Certificate { return &x509.Certificate{PublicKey: pub} }

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
	crt := p256Cert(t)
	var h SKENonce
	for i := 0; i < 8; i++ {
		digest := digestOf(i)
		sig, err := crt.SignSKE(DefaultRand, digest, &h)
		if err != nil {
			t.Fatal(err)
		}
		r, s := sigInts(t, sig)
		accepted := 0
		for _, m := range malformed(r, s) {
			if agree(t, &h, crt.Leaf, digest, m) {
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
		if !agree(t, &h, crt.Leaf, digest, sig) {
			t.Fatalf("crafted signature with s = %x does not verify", sv)
		}
		for _, m := range malformed(sigInts(t, sig)) {
			agree(t, &h, crt.Leaf, digest, m)
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
	crt := p256Cert(t)
	priv := crt.Key.(*ecdsa.PrivateKey)
	var h SKENonce
	if _, err := crt.SignSKE(DefaultRand, digestOf(0), &h); err != nil {
		t.Fatal(err)
	}
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
		if !agree(t, &h, crt.Leaf, digest, sig) {
			t.Fatalf("stdlib signature over %d-byte digest does not verify", len(digest))
		}
		flipped := append([]byte{}, digest...)
		if len(flipped) > 0 {
			flipped[0] ^= 0x80
			agree(t, &h, crt.Leaf, flipped, sig)
		}
	}
}

// When e ≡ -r·d (mod n), u1·G + u2·Q is the point at infinity, which
// ecdsa rejects whatever s is; so must the fast check, handed a nonce
// for that r.
func TestVerifySKEInfinityRejected(t *testing.T) {
	crt := p256Cert(t)
	d := crt.Key.(*ecdsa.PrivateKey).D
	n := elliptic.P256().Params().N
	for _, r := range []int64{1, 2, 12345} {
		e := new(big.Int).Mul(big.NewInt(r), d)
		e.Neg(e).Mod(e, n)
		digest := e.FillBytes(make([]byte, 32))
		sig := derSig(derInt(big.NewInt(r)), derInt(big.NewInt(7)))
		h := SKENonce{signer: crt, r: scalar{uint64(r)}, k: scalar{3}}
		if agree(t, &h, crt.Leaf, digest, sig) {
			t.Fatalf("r = %d: accepted a signature whose point is at infinity", r)
		}
	}
}

// Signatures without a hand-off of their own go to the standard
// library: one by a key outside any certificate, one checked with no
// hand-off, and one checked with the hand-off of another certificate.
func TestVerifySKEFallbacks(t *testing.T) {
	hits := countHits(t)
	crt := p256Cert(t)
	other, err := newLeaf(ECDSAP256)
	if err != nil {
		t.Fatal(err)
	}
	priv, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		digest := digestOf(i)
		sig, err := signP256(priv, DefaultRand, digest, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !agree(t, nil, bare(&priv.PublicKey), digest, sig) {
			t.Fatalf("fallback signature %d does not verify", i)
		}
		r, s := sigInts(t, sig)
		for _, m := range malformed(r, s)[:20] {
			agree(t, nil, bare(&priv.PublicKey), digest, m)
		}
		digest[0] ^= 1
		agree(t, nil, bare(&priv.PublicKey), digest, sig)

		var h, oh SKENonce
		digest = digestOf(i)
		sig, err = crt.SignSKE(DefaultRand, digest, &h)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := other.SignSKE(DefaultRand, digest, &oh); err != nil {
			t.Fatal(err)
		}
		if !agree(t, nil, crt.Leaf, digest, sig) || !agree(t, &oh, crt.Leaf, digest, sig) {
			t.Fatalf("signature %d does not verify without its hand-off", i)
		}
	}
	if got := hits.Value(); got != 0 {
		t.Fatalf("%d nonce hits without a matching hand-off", got)
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
	if !agree(t, nil, bare(&p384.PublicKey), digestOf(0), sig) {
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

// Leaves issued concurrently with signing and verification must neither
// race nor change any verdict.
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
			for i := 0; i < 4; i++ {
				var h SKENonce
				digest := digestOf(i)
				sig, err := crt.SignSKE(DefaultRand, digest, &h)
				if err != nil {
					t.Error(err)
					return
				}
				if err := h.Verify(crt.Leaf, digest, sig); err != nil {
					t.Errorf("concurrent verify: %v", err)
					return
				}
				digest[1] ^= 1
				if h.Verify(crt.Leaf, digest, sig) == nil {
					t.Error("concurrent verify accepted a flipped digest")
					return
				}
			}
		}(crt)
	}
	vg.Wait()
}

// countHits installs a fresh telemetry registry for the test and returns
// its nonce-hit counter.
func countHits(t testing.TB) *telemetry.Counter {
	reg := telemetry.NewRegistry()
	t.Cleanup(telemetry.SetGlobal(reg))
	return reg.Counter("pki/ske_nonce_hit")
}

// Signatures checked with their own hand-off must get ecdsa.VerifyASN1's
// verdict, and only a valid one may be accepted by the fast check.
func TestVerifySKENonceMemoMatchesStdlib(t *testing.T) {
	crt := p256Cert(t)
	other, err := newLeaf(ECDSAP256)
	if err != nil {
		t.Fatal(err)
	}
	d := crt.Key.(*ecdsa.PrivateKey).D
	hits := countHits(t)
	for i := 0; i < 64; i++ {
		var h, oh SKENonce
		digest := digestOf(i)
		prev, err := crt.SignSKE(DefaultRand, digestOf(i+1000), nil)
		if err != nil {
			t.Fatal(err)
		}
		otherSig, err := other.SignSKE(DefaultRand, digest, &oh)
		if err != nil {
			t.Fatal(err)
		}
		sig, err := crt.SignSKE(DefaultRand, digest, &h)
		if err != nil {
			t.Fatal(err)
		}
		r, s := sigInts(t, sig)
		pr, ps := sigInts(t, prev)
		flipped := append([]byte(nil), digest...)
		flipped[i%len(flipped)] ^= 1
		// An r other than the nonce's, with the s that makes
		// s·k ≡ e + r·d hold for this nonce: only the r check refuses it.
		fr := new(big.Int).Add(r, big.NewInt(1))
		fs := new(big.Int).Mul(fr, d)
		fs.Add(fs, new(big.Int).SetBytes(digest)).Mul(fs, new(big.Int).ModInverse(h.k.big(), p256N)).Mod(fs, p256N)
		for _, c := range []struct {
			name   string
			h      *SKENonce
			leaf   *x509.Certificate
			digest []byte
			sig    []byte
			want   bool
		}{
			{"valid", &h, crt.Leaf, digest, sig, true},
			{"flipped digest", &h, crt.Leaf, flipped, sig, false},
			{"(r, n-s)", &h, crt.Leaf, digest, derSig(derInt(r), derInt(new(big.Int).Sub(p256N, s))), true},
			{"s+1", &h, crt.Leaf, digest, derSig(derInt(r), derInt(new(big.Int).Add(s, big.NewInt(1)))), false},
			{"r of this, s of another", &h, crt.Leaf, digest, derSig(derInt(r), derInt(ps)), false},
			{"r of another, s of this", &h, crt.Leaf, digest, derSig(derInt(pr), derInt(s)), false},
			{"another r, s for this nonce", &h, crt.Leaf, digest, derSig(derInt(fr), derInt(fs)), false},
			{"another certificate's signature", &h, crt.Leaf, digest, otherSig, false},
			{"another certificate's hand-off", &oh, crt.Leaf, digest, sig, true},
			{"this hand-off, another leaf", &h, other.Leaf, digest, sig, false},
		} {
			before := hits.Value()
			if got := agree(t, c.h, c.leaf, c.digest, c.sig); got != c.want {
				t.Fatalf("signature %d, %s: verdict %v, want %v", i, c.name, got, c.want)
			}
			var wantHits uint64
			if c.name == "valid" {
				wantHits = 1
			}
			if got := hits.Value() - before; got != wantHits {
				t.Fatalf("signature %d, %s: %d nonce hits, want %d", i, c.name, got, wantHits)
			}
		}
		// A hand-off that moved on to the next signature sends this one
		// to ecdsa.VerifyASN1.
		if _, err := crt.SignSKE(DefaultRand, digestOf(i+2000), &h); err != nil {
			t.Fatal(err)
		}
		before := hits.Value()
		if !agree(t, &h, crt.Leaf, digest, sig) {
			t.Fatalf("signature %d: rejected after its hand-off moved on", i)
		}
		if hits.Value() != before {
			t.Fatalf("signature %d: answered from another signature's nonce", i)
		}
	}
}

// Each valid signature verified with its own hand-off counts one hit;
// signatures without one never do.
func TestVerifySKENonceHitsCounted(t *testing.T) {
	crt := p256Cert(t)
	outside, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	hits := countHits(t)
	const n = 16
	for i := 0; i < n; i++ {
		var h SKENonce
		sig, err := crt.SignSKE(DefaultRand, digestOf(i), &h)
		if err != nil {
			t.Fatal(err)
		}
		if err := h.Verify(crt.Leaf, digestOf(i), sig); err != nil {
			t.Fatal(err)
		}
		sig, err = signP256(outside, DefaultRand, digestOf(i), nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := VerifySKE(&outside.PublicKey, digestOf(i), sig); err != nil {
			t.Fatal(err)
		}
	}
	if got := hits.Value(); got != n {
		t.Fatalf("%d nonce hits, want %d", got, n)
	}
}

// TestVerifySKEFastPathAfterManyKeys makes more P-256 keys than any
// bounded key table would keep (32,768) after the first leaf, and
// requires that leaf's signature still to take the fast check: the
// scalar travels with the certificate, whatever the process made since.
func TestVerifySKEFastPathAfterManyKeys(t *testing.T) {
	first, err := newLeaf(ECDSAP256)
	if err != nil {
		t.Fatal(err)
	}
	rng := mrand.New(mrand.NewSource(1))
	for i := 0; i <= 1<<15; i++ {
		if _, err := genKey(ECDSAP256, rng); err != nil {
			t.Fatal(err)
		}
	}
	hits := countHits(t)
	var h SKENonce
	sig, err := first.SignSKE(DefaultRand, digestOf(0), &h)
	if err != nil {
		t.Fatal(err)
	}
	if !agree(t, &h, first.Leaf, digestOf(0), sig) {
		t.Fatal("the first leaf's signature does not verify")
	}
	if got := hits.Value(); got != 1 {
		t.Fatalf("%d nonce hits for the first leaf's signature, want 1", got)
	}
}

// Signers and verifiers run in many goroutines: each verifier checks
// signatures another goroutine made, with the hand-off the signer
// filled, valid and tampered. Every verdict must be ecdsa.VerifyASN1's.
func TestVerifySKENonceTableConcurrent(t *testing.T) {
	crt := p256Cert(t)
	other, err := newLeaf(ECDSAP256)
	if err != nil {
		t.Fatal(err)
	}
	type signed struct {
		crt         *Certificate
		h           *SKENonce
		digest, sig []byte
	}
	const signers, perSigner = 4, 32
	out := make(chan signed, signers*perSigner) // never blocks a signer
	var sg sync.WaitGroup
	for w := 0; w < signers; w++ {
		c := crt
		if w%2 == 1 {
			c = other
		}
		sg.Add(1)
		go func(w int, c *Certificate) {
			defer sg.Done()
			for i := 0; i < perSigner; i++ {
				h := new(SKENonce)
				digest := digestOf(w*perSigner + i)
				sig, err := c.SignSKE(DefaultRand, digest, h)
				if err != nil {
					t.Error(err)
					return
				}
				out <- signed{c, h, digest, sig}
			}
		}(w, c)
	}
	go func() { sg.Wait(); close(out) }()
	var vg sync.WaitGroup
	for v := 0; v < 2; v++ {
		vg.Add(1)
		go func() {
			defer vg.Done()
			for x := range out {
				check := func(leaf *x509.Certificate, digest, sig []byte, want bool) {
					got := x.h.Verify(leaf, digest, sig) == nil
					if std := ecdsa.VerifyASN1(leaf.PublicKey.(*ecdsa.PublicKey), digest, sig); got != std || got != want {
						t.Errorf("Verify = %v, ecdsa.VerifyASN1 = %v, want %v", got, std, want)
					}
				}
				check(x.crt.Leaf, x.digest, x.sig, true)
				flipped := append([]byte(nil), x.digest...)
				flipped[0] ^= 1
				check(x.crt.Leaf, flipped, x.sig, false)
				wrong := crt
				if wrong == x.crt {
					wrong = other
				}
				check(wrong.Leaf, x.digest, x.sig, false)
			}
		}()
	}
	vg.Wait()
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

// fuzzCert is a certificate for a fixed P-256 key, so signatures in the
// committed corpus stay valid from run to run.
var fuzzCert = sync.OnceValue(func() *Certificate {
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
	tmpl := &x509.Certificate{SerialNumber: big.NewInt(1), NotBefore: nb, NotAfter: na}
	der, err := x509.CreateCertificate(rand.Reader, tmpl, tmpl, &key.PublicKey, key)
	if err != nil {
		panic(err)
	}
	leaf, err := x509.ParseCertificate(der)
	if err != nil {
		panic(err)
	}
	return &Certificate{Leaf: leaf, Chain: [][]byte{der}, Key: key}
})

// FuzzVerifySKE signs with fixed entropy, so the signature is the same
// on every run, and checks every input with that signature's hand-off:
// the committed seed nonce_hit (the same digest and signature) and its
// mutations reach the fast check.
func FuzzVerifySKE(f *testing.F) {
	crt := fuzzCert()
	var h SKENonce
	digest := digestOf(0)
	sig, err := crt.SignSKE(bytes.NewReader(make([]byte, 32)), digest, &h)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(digest, sig)
	f.Fuzz(func(t *testing.T, digest, sig []byte) {
		agree(t, &h, crt.Leaf, digest, sig)
	})
}

// BenchmarkVerifySKE times one check of a valid signature: with its own
// hand-off (hit), with the hand-off of a later signature (miss), and by
// a key outside any certificate (stdlib); both of the last two take
// ecdsa.VerifyASN1.
func BenchmarkVerifySKE(b *testing.B) {
	outside, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		b.Fatal(err)
	}
	crt := p256Cert(b)
	for _, bc := range []struct {
		name string
		crt  *Certificate
		miss bool
	}{
		{"hit", crt, false},
		{"miss", crt, true},
		{"stdlib", nil, false},
	} {
		b.Run(bc.name, func(b *testing.B) {
			digest := digestOf(0)
			var h *SKENonce
			var leaf *x509.Certificate
			var sig []byte
			if bc.crt == nil {
				leaf = bare(&outside.PublicKey)
				if sig, err = signP256(outside, DefaultRand, digest, nil); err != nil {
					b.Fatal(err)
				}
			} else {
				h, leaf = new(SKENonce), bc.crt.Leaf
				if sig, err = bc.crt.SignSKE(DefaultRand, digest, h); err != nil {
					b.Fatal(err)
				}
				if bc.miss {
					if _, err := bc.crt.SignSKE(DefaultRand, digestOf(1), h); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := h.Verify(leaf, digest, sig); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
