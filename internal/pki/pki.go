// Package pki provides the simulated CA hierarchy and root store: real
// x509 certificates (ECDSA P-256 by default, RSA supported) issued by
// simulated roots, and the "browser-trusted" predicate the study's trust
// filter applies (§3 of the paper).
package pki

import (
	"bytes"
	"crypto"
	"crypto/ecdh"
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/rsa"
	"crypto/sha256"
	"crypto/sha512"
	"crypto/x509"
	"crypto/x509/pkix"
	"errors"
	"fmt"
	"io"
	"math/big"
	"sync"
	"time"

	"tlsshortcuts/internal/telemetry"
	"tlsshortcuts/internal/wire"
)

// Alg selects the leaf/CA signature algorithm.
type Alg int

const (
	ECDSAP256 Alg = iota
	RSA2048
)

// DefaultRand is the entropy source used when callers have no seeded
// stream of their own.
var DefaultRand io.Reader = rand.Reader

// Certificate bundles a leaf with its chain and private key — everything a
// terminator needs to serve it.
type Certificate struct {
	Leaf  *x509.Certificate
	Chain [][]byte // DER, leaf first
	Key   crypto.Signer

	msgOnce sync.Once
	msg     []byte
}

// Message returns the framed TLS Certificate handshake message that
// carries Chain, marshaled on first use. The chain never changes, so
// every full handshake serving the certificate sends these bytes, and
// they live exactly as long as the certificate does.
func (c *Certificate) Message() []byte {
	c.msgOnce.Do(func() { c.msg = wire.MarshalCertificate(c.Chain).Marshal() })
	return c.msg
}

// SignSKE signs the SHA-256 digest of a ServerKeyExchange's signed
// parameters with the certificate's key. P-256 ECDSA keys use a lean
// hedged signer (signP256), which also hands the signature's nonce to a
// verifier through h when h is not nil; other keys sign through
// crypto.Signer.
func (c *Certificate) SignSKE(entropy io.Reader, digest []byte, h *SKENonce) ([]byte, error) {
	if k, ok := c.Key.(*ecdsa.PrivateKey); ok && k.Curve == elliptic.P256() {
		sig, err := signP256(k, entropy, digest, h)
		if err == nil && h != nil {
			h.signer = c
		}
		return sig, err
	}
	return c.Key.Sign(entropy, digest, crypto.SHA256)
}

// signP256 returns an ASN.1 DER ECDSA signature of a SHA-256 digest. The
// nonce k is hedged: SHA-512(d ‖ digest ‖ 32 entropy bytes ‖ ctr), whose
// first 32 bytes are rejection-sampled into [1, n-1]. A repeated entropy
// draw still gives a distinct nonce per (key, digest), and the signature
// is a function of (key, digest, entropy). R = k·G comes from
// crypto/ecdh's base-point multiplication and s = k⁻¹(e + r·d) from the
// scalar helper. This skips the standard library's per-signature DRBG
// set-up and constant-time inversion, which cost more than the
// multiplication; like the rest of the simulator it is not hardened
// against timing side channels. When h is not nil it receives the
// signature's r and k.
func signP256(key *ecdsa.PrivateKey, entropy io.Reader, digest []byte, h *SKENonce) ([]byte, error) {
	if len(digest) != sha256.Size {
		return nil, fmt.Errorf("pki: SKE digest is %d bytes, want %d", len(digest), sha256.Size)
	}
	var msg [32 + sha256.Size + 32 + 1]byte // d ‖ digest ‖ entropy ‖ ctr
	key.D.FillBytes(msg[:32])
	copy(msg[32:], digest)
	if _, err := io.ReadFull(entropy, msg[32+sha256.Size:len(msg)-1]); err != nil {
		return nil, fmt.Errorf("pki: reading signing entropy: %w", err)
	}
	// The digest is as wide as the order, so it is e unshifted.
	var d, e, k, r, s, kInv scalar
	d.setBytes(msg[:32])
	e.setBytes(digest)
	for ctr := 0; ctr < 256; ctr++ {
		msg[len(msg)-1] = byte(ctr)
		sum := sha512.Sum512(msg[:])
		R, err := ecdh.P256().NewPrivateKey(sum[:32]) // rejects 0 and k >= n
		if err != nil {
			continue
		}
		r.setBytes(R.PublicKey().Bytes()[1:33]) // x(R) mod n
		if r.isZero() {
			continue
		}
		k.setBytes(sum[:32])
		s.mul(&r, &d).add(&s, &e).mul(&s, kInv.inv(&k))
		if s.isZero() {
			continue
		}
		if h != nil {
			h.r, h.k = r, k
		}
		sig := make([]byte, 2, 2+2*(2+33))
		sig[0] = 0x30 // SEQUENCE
		sig = appendASN1Int(sig, &r)
		sig = appendASN1Int(sig, &s)
		sig[1] = byte(len(sig) - 2)
		return sig, nil
	}
	return nil, fmt.Errorf("pki: no valid ECDSA nonce in 256 candidates")
}

// appendASN1Int appends a nonzero v as a DER INTEGER.
func appendASN1Int(b []byte, v *scalar) []byte {
	var buf [33]byte
	v.fillBytes((*[32]byte)(buf[1:]))
	mag := buf[1:]
	for len(mag) > 1 && mag[0] == 0 {
		mag = mag[1:]
	}
	if mag[0]&0x80 != 0 { // keep the value positive
		mag = buf[len(buf)-len(mag)-1:]
	}
	b = append(b, 0x02, byte(len(mag)))
	return append(b, mag...)
}

var errBadSKESig = errors.New("pki: bad ServerKeyExchange signature")

// VerifySKE checks sig, a ServerKeyExchange signature by pub over digest
// (the SHA-256 of the signed parameters), and returns nil if it is
// valid: ECDSA keys through ecdsa.VerifyASN1, RSA keys through
// rsa.VerifyPKCS1v15.
func VerifySKE(pub crypto.PublicKey, digest, sig []byte) error {
	switch pub := pub.(type) {
	case *ecdsa.PublicKey:
		if !ecdsa.VerifyASN1(pub, digest, sig) {
			return errBadSKESig
		}
		return nil
	case *rsa.PublicKey:
		return rsa.VerifyPKCS1v15(pub, crypto.SHA256, digest, sig)
	default:
		return fmt.Errorf("pki: unsupported ServerKeyExchange key type %T", pub)
	}
}

// SKENonce is the secret half of one P-256 ServerKeyExchange signature,
// handed from the signer to a verifier in the same process: the
// certificate that signed, the signature's r, and its nonce k, with
// r = x(k·G) mod n. With k any signature reveals the certificate's
// private key, so a SKENonce lives only as long as the connection that
// carries it (package handoff). The zero value holds nothing.
type SKENonce struct {
	signer *Certificate
	r, k   scalar
}

// Verify checks sig, a ServerKeyExchange signature over digest by
// leaf's key, and returns nil if it is valid. When h holds the nonce of
// a signature by that same certificate (its DER equals leaf.Raw, and a
// Certificate's Key is its leaf's, as IssueLeaf makes it) with the r
// that sig carries, the check costs no curve operation (verify).
// Every other signature, and every one the fast check does not accept,
// goes to VerifySKE. h may be nil.
func (h *SKENonce) Verify(leaf *x509.Certificate, digest, sig []byte) error {
	if h != nil && h.signer != nil && bytes.Equal(h.signer.Chain[0], leaf.Raw) && h.verify(digest, sig) {
		return nil
	}
	return VerifySKE(leaf.PublicKey, digest, sig)
}

// verify reports whether sig is a valid ECDSA signature over digest by
// the signer's key, given that sig's r is h's. The signature is parsed
// under crypto/ecdsa's rules (strict DER, 0 < r, s < n). It accepts when
// s·k ≡ e + r·d (mod n): then u = (e + r·d)·s⁻¹ = k, and signP256 took
// r from k·G, so x(u·G) mod n = r holds without computing it. A false
// result is no verdict: the caller asks ecdsa.VerifyASN1.
func (h *SKENonce) verify(digest, sig []byte) bool {
	r, s, ok := parseSignature(sig)
	if !ok || r != h.r {
		return false
	}
	// e is the leftmost 256 bits of the digest, reduced mod n.
	if len(digest) > 32 {
		digest = digest[:32]
	}
	var buf [32]byte
	var d, e, u, w scalar
	d.setBytes(h.signer.Key.(*ecdsa.PrivateKey).D.FillBytes(buf[:]))
	e.setBytes(digest)
	u.mul(&r, &d).add(&u, &e) // e + r·d
	if *w.mul(&s, &h.k) != u {
		return false
	}
	telemetry.Global().Counter("pki/ske_nonce_hit").Inc()
	return true
}

// parseSignature parses an ASN.1 DER ECDSA signature under crypto/ecdsa's
// rules: one SEQUENCE of two INTEGERs with nothing before, between or
// after, each minimally encoded, non-negative, and in [1, n-1].
func parseSignature(sig []byte) (r, s scalar, ok bool) {
	seq, rest, ok := derElement(sig, 0x30)
	if !ok || len(rest) != 0 {
		return r, s, false
	}
	rb, seq, ok := derElement(seq, 0x02)
	if !ok {
		return r, s, false
	}
	sb, seq, ok := derElement(seq, 0x02)
	if !ok || len(seq) != 0 {
		return r, s, false
	}
	return r, s, r.setSigInt(rb) && s.setSigInt(sb)
}

// derElement splits one element with the given tag off b. It takes only
// short-form lengths: a long form encodes 128 bytes or more, and an
// INTEGER that long, or a SEQUENCE holding two INTEGERs below n (at most
// 70 bytes), cannot be part of a valid signature, so crypto/ecdsa
// rejects those signatures too.
func derElement(b []byte, tag byte) (body, rest []byte, ok bool) {
	if len(b) < 2 || b[0] != tag || b[1]&0x80 != 0 || int(b[1]) > len(b)-2 {
		return nil, nil, false
	}
	return b[2 : 2+b[1]], b[2+b[1]:], true
}

// setSigInt sets z to the DER INTEGER body b and reports whether it is
// minimally encoded, positive and below n.
func (z *scalar) setSigInt(b []byte) bool {
	if len(b) == 0 || b[0]&0x80 != 0 {
		return false
	}
	if len(b) > 1 && b[0] == 0 {
		if b[1]&0x80 == 0 {
			return false // not minimal
		}
		b = b[1:]
	}
	return len(b) <= 32 && z.setBytes(b) && !z.isZero()
}

// RootCA can issue leaves.
type RootCA struct {
	Cert *x509.Certificate
	Key  crypto.Signer

	serial int64
	mu     sync.Mutex
}

func genKey(alg Alg, rnd io.Reader) (crypto.Signer, error) {
	switch alg {
	case RSA2048:
		return rsa.GenerateKey(rnd, 2048)
	default:
		return ecdsa.GenerateKey(elliptic.P256(), rnd)
	}
}

// NewRootCA creates a self-signed root.
func NewRootCA(name string, alg Alg, rnd io.Reader) (*RootCA, error) {
	key, err := genKey(alg, rnd)
	if err != nil {
		return nil, err
	}
	tmpl := &x509.Certificate{
		SerialNumber:          big.NewInt(1),
		Subject:               pkix.Name{CommonName: name},
		NotBefore:             time.Date(2010, 1, 1, 0, 0, 0, 0, time.UTC),
		NotAfter:              time.Date(2040, 1, 1, 0, 0, 0, 0, time.UTC),
		IsCA:                  true,
		BasicConstraintsValid: true,
		KeyUsage:              x509.KeyUsageCertSign,
	}
	der, err := x509.CreateCertificate(rnd, tmpl, tmpl, key.Public(), key)
	if err != nil {
		return nil, err
	}
	cert, err := x509.ParseCertificate(der)
	if err != nil {
		return nil, err
	}
	return &RootCA{Cert: cert, Key: key}, nil
}

// IssueLeaf issues a server certificate for names, valid [nb, na).
func (r *RootCA) IssueLeaf(names []string, alg Alg, nb, na time.Time, rnd io.Reader) (*Certificate, error) {
	if len(names) == 0 {
		return nil, fmt.Errorf("pki: no names")
	}
	key, err := genKey(alg, rnd)
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	r.serial++
	serial := r.serial
	r.mu.Unlock()
	tmpl := &x509.Certificate{
		SerialNumber: big.NewInt(serial + 1000),
		Subject:      pkix.Name{CommonName: names[0]},
		DNSNames:     names,
		NotBefore:    nb,
		NotAfter:     na,
		KeyUsage:     x509.KeyUsageDigitalSignature,
		ExtKeyUsage:  []x509.ExtKeyUsage{x509.ExtKeyUsageServerAuth},
	}
	der, err := x509.CreateCertificate(rnd, tmpl, r.Cert, key.Public(), r.Key)
	if err != nil {
		return nil, err
	}
	leaf, err := x509.ParseCertificate(der)
	if err != nil {
		return nil, err
	}
	return &Certificate{Leaf: leaf, Chain: [][]byte{der, r.Cert.Raw}, Key: key}, nil
}

// RootStore is the simulated browser trust store. It also keeps the
// parsed leaves its world serves, so they live exactly as long as the
// world does.
type RootStore struct {
	pool   *x509.CertPool
	nb, na time.Time // the window in which every root is valid
	cache  sync.Map  // [32]byte leaf+name fingerprint -> *trust
	leaves sync.Map  // [32]byte leaf DER fingerprint -> *x509.Certificate
}

// trust is a memoized verdict and the window [nb, na] in which it holds.
type trust struct {
	ok     bool
	nb, na time.Time
}

// endOfTime is past any certificate's NotAfter: x509 dates have
// four-digit years.
var endOfTime = time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC)

// NewRootStore builds a store trusting the given roots.
func NewRootStore(roots ...*RootCA) *RootStore {
	s := &RootStore{pool: x509.NewCertPool(), na: endOfTime}
	for _, r := range roots {
		s.pool.AddCert(r.Cert)
		s.nb, s.na = narrow(s.nb, s.na, r.Cert)
	}
	return s
}

// AddLeaf records a certificate the store's world serves, so Leaf
// returns the issuer's own parse of it instead of a second one.
func (s *RootStore) AddLeaf(c *Certificate) {
	s.leaves.Store(sha256.Sum256(c.Chain[0]), c.Leaf)
}

// Leaf returns the parsed certificate for a leaf's DER: the issuer's
// parse for a leaf added with AddLeaf, otherwise a parse the store keeps
// for its lifetime. The scanner checks ServerKeyExchange signatures
// against the same few hundred leaves tens of thousands of times. The
// caller may reuse der afterwards: a kept parse is of a copy, because
// x509.ParseCertificate aliases its input.
func (s *RootStore) Leaf(der []byte) (*x509.Certificate, error) {
	key := sha256.Sum256(der)
	if v, ok := s.leaves.Load(key); ok {
		return v.(*x509.Certificate), nil
	}
	leaf, err := x509.ParseCertificate(bytes.Clone(der))
	if err != nil {
		return nil, err
	}
	v, _ := s.leaves.LoadOrStore(key, leaf)
	return v.(*x509.Certificate), nil
}

// narrow intersects the window [nb, na] with c's validity period.
func narrow(nb, na time.Time, c *x509.Certificate) (time.Time, time.Time) {
	if c.NotBefore.After(nb) {
		nb = c.NotBefore
	}
	if c.NotAfter.Before(na) {
		na = c.NotAfter
	}
	return nb, na
}

// Verify reports whether the DER chain is browser-trusted for name at the
// given time. Results are memoized by (leaf, name) — the study re-checks
// the same chain tens of thousands of times — but only for the window in
// which every certificate of the chain and every root is valid. Inside
// it no validity check can fail, so the verdict cannot depend on the
// time; outside it the chain is verified again.
func (s *RootStore) Verify(chain [][]byte, name string, now time.Time) bool {
	if len(chain) == 0 {
		return false
	}
	h := sha256.New()
	h.Write(chain[0])
	h.Write([]byte(name))
	var key [32]byte
	h.Sum(key[:0])
	if v, ok := s.cache.Load(key); ok {
		if t := v.(*trust); t.holdsAt(now) {
			return t.ok
		}
	}
	t := s.verify(chain, name, now)
	if t.holdsAt(now) {
		s.cache.Store(key, t)
	}
	return t.ok
}

func (t *trust) holdsAt(now time.Time) bool { return !now.Before(t.nb) && !now.After(t.na) }

func (s *RootStore) verify(chain [][]byte, name string, now time.Time) *trust {
	t := &trust{nb: s.nb, na: s.na}
	leaf, err := s.Leaf(chain[0])
	if err != nil {
		return t
	}
	t.nb, t.na = narrow(t.nb, t.na, leaf)
	inter := x509.NewCertPool()
	for _, der := range chain[1:] {
		if c, err := x509.ParseCertificate(der); err == nil {
			inter.AddCert(c)
			t.nb, t.na = narrow(t.nb, t.na, c)
		}
	}
	_, err = leaf.Verify(x509.VerifyOptions{
		DNSName:       name,
		Roots:         s.pool,
		Intermediates: inter,
		CurrentTime:   now,
		KeyUsages:     []x509.ExtKeyUsage{x509.ExtKeyUsageServerAuth},
	})
	t.ok = err == nil
	return t
}
