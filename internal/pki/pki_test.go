package pki

import (
	"bytes"
	"crypto"
	"crypto/ecdh"
	"crypto/ecdsa"
	"crypto/elliptic"
	crand "crypto/rand"
	"crypto/rsa"
	"crypto/sha256"
	"crypto/x509"
	"crypto/x509/pkix"
	"encoding/asn1"
	"encoding/binary"
	"math/big"
	"math/rand"
	"sync"
	"testing"
	"time"
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
		sig, err := crt.SignSKE(nil, rng, digest, &h)
		if err != nil {
			t.Fatal(err)
		}
		parseSig(t, sig)
		if !agree(t, &h, crt.leaf(), digest, sig, nil) {
			t.Fatalf("signature %d does not verify", i)
		}
		digest[i%len(digest)] ^= 1 << (i % 8)
		if agree(t, &h, crt.leaf(), digest, sig, nil) {
			t.Fatalf("signature %d verifies a flipped digest", i)
		}
	}
}

func TestSignSKEP256Hedged(t *testing.T) {
	crt := p256Cert(t)
	digest := digestOf(7)
	sign := func(seed int64) []byte {
		sig, err := crt.SignSKE(nil, rand.New(rand.NewSource(seed)), digest, nil)
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
	sig, err := crt.SignSKE(nil, rand.New(rand.NewSource(1)), digestOf(8), nil)
	if err != nil {
		t.Fatal(err)
	}
	if rd, _ := parseSig(t, sig); ra.Cmp(rd) == 0 {
		t.Fatal("different digests under the same entropy gave the same r")
	}
}

func TestSignSKERejectsBadInput(t *testing.T) {
	crt := p256Cert(t)
	if _, err := crt.SignSKE(nil, bytes.NewReader(make([]byte, 31)), digestOf(0), nil); err == nil {
		t.Fatal("signed with 31 bytes of entropy")
	}
	if _, err := crt.SignSKE(nil, rand.New(rand.NewSource(1)), digestOf(0)[:20], nil); err == nil {
		t.Fatal("signed a 20-byte digest")
	}
}

// TestSignSKEAppendsWithoutScratch signs into a caller's buffer that
// already holds the signed parameters: the signature is appended after
// them and verifies, the spare capacity it used as scratch (the private
// key, the nonce candidate) is left zeroed, and the signer allocates no
// more than crypto/ecdh's key constructor does for the nonce's point:
// nothing for the message, the hash or the signature.
func TestSignSKEAppendsWithoutScratch(t *testing.T) {
	crt := p256Cert(t)
	digest := digestOf(5)
	params := []byte("signed params")
	buf := append(make([]byte, 0, 512), params...)
	out, err := crt.SignSKE(buf, rand.New(rand.NewSource(1)), digest, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out[:len(params)], params) || &out[0] != &buf[0] {
		t.Fatal("SignSKE did not append to the caller's buffer")
	}
	if err := VerifySKE(crt.Key.Public(), digest, out[len(params):]); err != nil {
		t.Fatalf("appended signature: %v", err)
	}
	if spare := out[len(out):cap(out)]; !bytes.Equal(spare, make([]byte, len(spare))) {
		t.Fatal("the signer left scratch in the buffer's spare capacity")
	}

	scalar := make([]byte, 32)
	scalar[31] = 7
	curve := testing.AllocsPerRun(100, func() {
		if _, err := ecdh.P256().NewPrivateKey(scalar); err != nil {
			t.Fatal(err)
		}
	})
	rng := rand.New(rand.NewSource(2))
	var h SKENonce
	sign := func() {
		if buf, err = crt.SignSKE(buf[:0], rng, digest, &h); err != nil {
			t.Fatal(err)
		}
	}
	sign()
	if a := testing.AllocsPerRun(100, sign); a > curve {
		t.Fatalf("a signature allocates %v objects, crypto/ecdh's key %v", a, curve)
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
		sig, err := crt.SignSKE(nil, crand.Reader, digest, nil)
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
		sig, err := crt.SignSKE(nil, rng, digest, nil)
		if err != nil {
			b.Fatal(err)
		}
		sigSink = sig
	}
}

// TestRootStoreLeafConcurrent has scanner-like workers ask one store for
// a leaf it was given and one it was not, all at once: every worker must
// get the one entry AddLeaf stored for the added leaf, whose DER is the
// certificate's own and whose key is the one x509 parses from it, and
// one shared entry for the other. The Certificate message that used to
// be memoized beside the leaf is checked on the wire, in tlsserver's
// TestCertificateMessageOnWire.
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
	type got struct{ added, other *Leaf }
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
		}(w)
	}
	wg.Wait()
	for w, r := range results {
		if r.added == nil || r.added != results[0].added || &r.added.Raw[0] != &added.Chain[0][0] {
			t.Fatalf("worker %d: the added leaf's entry is not the one AddLeaf stored over Chain[0]", w)
		}
		if r.other == nil || r.other != results[0].other || !bytes.Equal(r.other.Raw, other.Chain[0]) {
			t.Fatalf("worker %d: the other leaf's entry is not the store's one copy", w)
		}
	}
	for _, c := range []struct {
		crt   *Certificate
		entry *Leaf
	}{{added, results[0].added}, {other, results[0].other}} {
		parsed, err := x509.ParseCertificate(c.crt.Chain[0])
		if err != nil {
			t.Fatal(err)
		}
		if !parsed.PublicKey.(*ecdsa.PublicKey).Equal(c.entry.PublicKey) {
			t.Fatalf("%v: the store's key is not the one x509 parses from the leaf", parsed.DNSNames)
		}
	}
	if _, err := s.Leaf([]byte("not a certificate")); err == nil {
		t.Fatal("a malformed leaf parsed")
	}
}

// TestRootStoreVerifyMatchesX509 requires every RootStore.Verify verdict
// to equal a fresh x509.Certificate.Verify with the store's options, from
// a fresh store and from one store that has memoized the rows before
// it. Rows cover a leaf given with AddLeaf and one not, the right and a
// wrong name, instants on and past each end of the validity window, a
// foreign root and a garbage intermediate. The last row appends "www."
// to a leaf issued for www.example.com and checks it for example.com:
// leaf DER and name concatenate to the bytes of an earlier trusted row,
// so a memo keyed by their concatenation answers it from that row.
func TestRootStoreVerifyMatchesX509(t *testing.T) {
	root, err := NewRootCA("verify root", ECDSAP256, crand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	foreignRoot, err := NewRootCA("foreign root", ECDSAP256, crand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	issue := func(r *RootCA, name string) *Certificate {
		crt, err := r.IssueLeaf([]string{name}, ECDSAP256, nb, na, crand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		return crt
	}
	added, other := issue(root, "www.example.com"), issue(root, "other.example")
	foreign := issue(foreignRoot, "foreign.example")
	// An intermediate CA under the root, and a leaf it issues: the chain
	// builds only with the intermediate.
	interKey, err := ecdsa.GenerateKey(elliptic.P256(), crand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	interDER, err := x509.CreateCertificate(crand.Reader, &x509.Certificate{
		SerialNumber:          big.NewInt(77),
		Subject:               pkix.Name{CommonName: "verify intermediate"},
		NotBefore:             nb.Add(-time.Hour),
		NotAfter:              na.Add(time.Hour),
		IsCA:                  true,
		BasicConstraintsValid: true,
		KeyUsage:              x509.KeyUsageCertSign,
	}, root.Cert, interKey.Public(), root.Key)
	if err != nil {
		t.Fatal(err)
	}
	interCert, err := x509.ParseCertificate(interDER)
	if err != nil {
		t.Fatal(err)
	}
	viaInter := issue(&RootCA{Cert: interCert, Key: interKey}, "inter.example")
	twoNames, err := root.IssueLeaf([]string{"one.example", "two.example"}, ECDSAP256, nb, na, crand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	newStore := func() *RootStore {
		s := NewRootStore(root)
		s.AddLeaf(added)
		return s
	}
	pool := x509.NewCertPool()
	pool.AddCert(root.Cert)
	x509Verdict := func(chain [][]byte, name string, at time.Time) bool {
		leaf, err := x509.ParseCertificate(chain[0])
		if err != nil {
			return false
		}
		inter := x509.NewCertPool()
		for _, der := range chain[1:] {
			if c, err := x509.ParseCertificate(der); err == nil {
				inter.AddCert(c)
			}
		}
		_, err = leaf.Verify(x509.VerifyOptions{
			DNSName:       name,
			Roots:         pool,
			Intermediates: inter,
			CurrentTime:   at,
			KeyUsages:     []x509.ExtKeyUsage{x509.ExtKeyUsageServerAuth},
		})
		return err == nil
	}

	type row struct {
		desc  string
		chain [][]byte
		name  string
		at    time.Time
		want  bool
	}
	mid := nb.Add(30 * 24 * time.Hour)
	var rows []row
	for _, l := range []struct {
		desc string
		crt  *Certificate
		name string
	}{{"added", added, "www.example.com"}, {"not added", other, "other.example"}} {
		rows = append(rows,
			row{l.desc + ", right name", l.crt.Chain, l.name, mid, true},
			row{l.desc + ", wrong name", l.crt.Chain, "wrong.example", mid, false},
			row{l.desc + ", at NotBefore", l.crt.Chain, l.name, nb, true},
			row{l.desc + ", before NotBefore", l.crt.Chain, l.name, nb.Add(-time.Second), false},
			row{l.desc + ", at NotAfter", l.crt.Chain, l.name, na, true},
			row{l.desc + ", after NotAfter", l.crt.Chain, l.name, na.Add(time.Second), false},
			row{l.desc + ", garbage intermediate", [][]byte{l.crt.Chain[0], []byte("garbage"), l.crt.Chain[1]}, l.name, mid, true},
			row{l.desc + ", only a garbage intermediate", [][]byte{l.crt.Chain[0], []byte("garbage")}, l.name, mid, true},
		)
	}
	rows = append(rows,
		row{"foreign root", foreign.Chain, "foreign.example", mid, false},
		row{"foreign root, trusted root as intermediate", [][]byte{foreign.Chain[0], root.Cert.Raw}, "foreign.example", mid, false},
		row{"garbage leaf", [][]byte{[]byte("garbage"), root.Cert.Raw}, "www.example.com", mid, false},
		row{"leaf with trailing bytes", [][]byte{append(bytes.Clone(added.Chain[0]), "www."...), added.Chain[1]}, "example.com", mid, false},
		// A verdict for one chain must not answer for the same leaf in
		// another: the shared store has trusted [leaf, intermediate].
		row{"via intermediate", viaInter.Chain, "inter.example", mid, true},
		row{"intermediate swapped out", viaInter.Chain[:1], "inter.example", mid, false},
		row{"intermediate swapped for the root", [][]byte{viaInter.Chain[0], root.Cert.Raw}, "inter.example", mid, false},
		row{"no name", added.Chain, "", mid, true},
		row{"two names, first", twoNames.Chain, "one.example", mid, true},
		row{"two names, second", twoNames.Chain, "two.example", mid, true},
		row{"two names, neither", twoNames.Chain, "three.example", mid, false},
	)
	shared := newStore()
	for _, r := range rows {
		want := x509Verdict(r.chain, r.name, r.at)
		if want != r.want {
			t.Fatalf("%s: x509 says %v, the row expects %v", r.desc, want, r.want)
		}
		if got := newStore().Verify(r.chain, r.name, r.at); got != want {
			t.Errorf("%s: a fresh store says %v, x509 %v", r.desc, got, want)
		}
		if got := shared.Verify(r.chain, r.name, r.at); got != want {
			t.Errorf("%s: a store that has seen the rows before says %v, x509 %v", r.desc, got, want)
		}
	}

	// A leaf served under several names has its chain checked once.
	s := newStore()
	for _, name := range []string{"one.example", "two.example", "three.example", "one.example"} {
		s.Verify(twoNames.Chain, name, mid)
	}
	if n := s.chainChecks.Load(); n != 1 {
		t.Errorf("four names on one chain ran %d chain checks, want 1", n)
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
