package pki

import (
	"bytes"
	"crypto"
	"crypto/elliptic"
	crand "crypto/rand"
	"crypto/rsa"
	"crypto/sha256"
	"crypto/x509"
	"encoding/asn1"
	"encoding/binary"
	"math/big"
	"math/rand"
	"sync"
	"testing"
	"time"

	"tlsshortcuts/internal/wire"
)

var (
	p256N = elliptic.P256().Params().N

	nb = time.Date(2016, 1, 1, 0, 0, 0, 0, time.UTC)
	na = time.Date(2017, 1, 1, 0, 0, 0, 0, time.UTC)
)

func newLeaf(alg Alg) (*Certificate, error) {
	root, err := NewRootCA("test root", alg, crand.Reader)
	if err != nil {
		return nil, err
	}
	return root.IssueLeaf([]string{"example.com"}, alg, nb, na, crand.Reader)
}

var p256Leaf = sync.OnceValues(func() (*Certificate, error) { return newLeaf(ECDSAP256) })

func p256Cert(t testing.TB) *Certificate {
	t.Helper()
	crt, err := p256Leaf()
	if err != nil {
		t.Fatal(err)
	}
	return crt
}

func digestOf(i int) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], uint64(i))
	d := sha256.Sum256(b[:])
	return d[:]
}

func parseSig(t *testing.T, sig []byte) (r, s *big.Int) {
	t.Helper()
	var v struct{ R, S *big.Int }
	rest, err := asn1.Unmarshal(sig, &v)
	if err != nil || len(rest) != 0 {
		t.Fatalf("signature %x is not one DER SEQUENCE: %v (%d trailing bytes)", sig, err, len(rest))
	}
	// Re-encoding must give the same bytes: DER has one encoding per value.
	if again, err := asn1.Marshal(v); err != nil || !bytes.Equal(again, sig) {
		t.Fatalf("signature %x is not canonical DER (re-encodes to %x)", sig, again)
	}
	for _, x := range []*big.Int{v.R, v.S} {
		if x.Sign() <= 0 || x.Cmp(p256N) >= 0 {
			t.Fatalf("signature component %x outside (0, n)", x)
		}
	}
	return v.R, v.S
}

func TestSignSKEP256Verifies(t *testing.T) {
	crt := p256Cert(t)
	rng := rand.New(rand.NewSource(1))
	n := 10000
	if testing.Short() {
		n = 1000
	}
	var h SKENonce
	for i := 0; i < n; i++ {
		digest := digestOf(i)
		sig, err := crt.SignSKE(rng, digest, &h)
		if err != nil {
			t.Fatal(err)
		}
		parseSig(t, sig)
		if !agree(t, &h, crt.Leaf, digest, sig, nil) {
			t.Fatalf("signature %d does not verify", i)
		}
		digest[i%len(digest)] ^= 1 << (i % 8)
		if agree(t, &h, crt.Leaf, digest, sig, nil) {
			t.Fatalf("signature %d verifies a flipped digest", i)
		}
	}
}

func TestSignSKEP256Hedged(t *testing.T) {
	crt := p256Cert(t)
	digest := digestOf(7)
	sign := func(seed int64) []byte {
		sig, err := crt.SignSKE(rand.New(rand.NewSource(seed)), digest, nil)
		if err != nil {
			t.Fatal(err)
		}
		return sig
	}
	a, b := sign(1), sign(1)
	if !bytes.Equal(a, b) {
		t.Fatalf("same key, digest and entropy gave %x and %x", a, b)
	}
	ra, _ := parseSig(t, a)
	rc, _ := parseSig(t, sign(2))
	if ra.Cmp(rc) == 0 {
		t.Fatal("different entropy gave the same r")
	}
	// The same entropy under a different digest must not reuse the nonce.
	sig, err := crt.SignSKE(rand.New(rand.NewSource(1)), digestOf(8), nil)
	if err != nil {
		t.Fatal(err)
	}
	if rd, _ := parseSig(t, sig); ra.Cmp(rd) == 0 {
		t.Fatal("different digests under the same entropy gave the same r")
	}
}

func TestSignSKERejectsBadInput(t *testing.T) {
	crt := p256Cert(t)
	if _, err := crt.SignSKE(bytes.NewReader(make([]byte, 31)), digestOf(0), nil); err == nil {
		t.Fatal("signed with 31 bytes of entropy")
	}
	if _, err := crt.SignSKE(rand.New(rand.NewSource(1)), digestOf(0)[:20], nil); err == nil {
		t.Fatal("signed a 20-byte digest")
	}
}

func TestSignSKERSA(t *testing.T) {
	crt, err := newLeaf(RSA2048)
	if err != nil {
		t.Fatal(err)
	}
	pub := crt.Key.Public().(*rsa.PublicKey)
	for i := 0; i < 4; i++ {
		digest := digestOf(i)
		sig, err := crt.SignSKE(crand.Reader, digest, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := rsa.VerifyPKCS1v15(pub, crypto.SHA256, digest, sig); err != nil {
			t.Fatalf("RSA signature %d: %v", i, err)
		}
		if err := VerifySKE(pub, digest, sig); err != nil {
			t.Fatalf("VerifySKE rejects RSA signature %d: %v", i, err)
		}
		digest[0] ^= 1
		if rsa.VerifyPKCS1v15(pub, crypto.SHA256, digest, sig) == nil {
			t.Fatalf("RSA signature %d verifies a flipped digest", i)
		}
		if VerifySKE(pub, digest, sig) == nil {
			t.Fatalf("VerifySKE accepts RSA signature %d over a flipped digest", i)
		}
	}
}

var sigSink []byte

func BenchmarkSignSKE(b *testing.B) {
	crt := p256Cert(b)
	rng := rand.New(rand.NewSource(1))
	digest := digestOf(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sig, err := crt.SignSKE(rng, digest, nil)
		if err != nil {
			b.Fatal(err)
		}
		sigSink = sig
	}
}

// TestRootStoreLeafConcurrent has scanner-like workers ask one store for
// a leaf it was given and one it was not, and ask one certificate for its
// Certificate message, all at once: every worker must get the issuer's
// own parse for the added leaf, one shared parse for the other, and one
// message equal to a fresh marshaling.
func TestRootStoreLeafConcurrent(t *testing.T) {
	root, err := NewRootCA("test root", ECDSAP256, crand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	added, err := root.IssueLeaf([]string{"added.example"}, ECDSAP256, nb, na, crand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	other, err := root.IssueLeaf([]string{"other.example"}, ECDSAP256, nb, na, crand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	s := NewRootStore(root)
	s.AddLeaf(added)
	const workers = 8
	type got struct {
		added, other *x509.Certificate
		msg          []byte
	}
	results := make([]got, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var err error
			if results[w].added, err = s.Leaf(added.Chain[0]); err != nil {
				t.Error(err)
			}
			if results[w].other, err = s.Leaf(other.Chain[0]); err != nil {
				t.Error(err)
			}
			results[w].msg = other.Message()
		}(w)
	}
	wg.Wait()
	want := wire.MarshalCertificate(other.Chain).Marshal()
	for w, r := range results {
		if r.added != added.Leaf {
			t.Fatalf("worker %d: the added leaf was parsed again", w)
		}
		if r.other == nil || r.other != results[0].other || !bytes.Equal(r.other.Raw, other.Chain[0]) {
			t.Fatalf("worker %d: the other leaf parse is not the store's one copy", w)
		}
		if !bytes.Equal(r.msg, want) || &r.msg[0] != &results[0].msg[0] {
			t.Fatalf("worker %d: Certificate message differs from MarshalCertificate or was marshaled twice", w)
		}
	}
	if _, err := s.Leaf([]byte("not a certificate")); err == nil {
		t.Fatal("a malformed leaf parsed")
	}
}

// TestRootStoreLeafOwnsItsDER gives a store a leaf it was not given with
// AddLeaf in a buffer the caller then reuses, as the client does with its
// pooled handshake buffer: the parse the store keeps must not change.
func TestRootStoreLeafOwnsItsDER(t *testing.T) {
	crt := p256Cert(t)
	s := NewRootStore()
	buf := append([]byte(nil), crt.Chain[0]...)
	leaf, err := s.Leaf(buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range buf {
		buf[i] = 0xff
	}
	if !bytes.Equal(leaf.Raw, crt.Chain[0]) {
		t.Fatal("the store's kept leaf changed when the caller reused its buffer")
	}
	if again, err := s.Leaf(crt.Chain[0]); err != nil || again != leaf {
		t.Fatalf("second lookup: %p, %v; want the kept parse %p", again, err, leaf)
	}
}
