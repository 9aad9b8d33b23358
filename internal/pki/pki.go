// Package pki provides the simulated CA hierarchy and root store: real
// x509 certificates (ECDSA P-256 by default, RSA supported) issued by
// simulated roots, and the "browser-trusted" predicate the study's trust
// filter applies (§3 of the paper).
package pki

import (
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
}

// SignSKE signs the SHA-256 digest of a ServerKeyExchange's signed
// parameters with the certificate's key. P-256 ECDSA keys use a lean
// hedged signer (signP256); other keys sign through crypto.Signer.
func (c *Certificate) SignSKE(entropy io.Reader, digest []byte) ([]byte, error) {
	if k, ok := c.Key.(*ecdsa.PrivateKey); ok && k.Curve == elliptic.P256() {
		return signP256(k, entropy, digest)
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
// against timing side channels.
func signP256(key *ecdsa.PrivateKey, entropy io.Reader, digest []byte) ([]byte, error) {
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
	var d, e, r, s, kInv scalar
	d.setBytes(msg[:32])
	e.setBytes(digest)
	for ctr := 0; ctr < 256; ctr++ {
		msg[len(msg)-1] = byte(ctr)
		h := sha512.Sum512(msg[:])
		k, err := ecdh.P256().NewPrivateKey(h[:32]) // rejects 0 and k >= n
		if err != nil {
			continue
		}
		r.setBytes(k.PublicKey().Bytes()[1:33]) // x(R) mod n
		if r.isZero() {
			continue
		}
		kInv.setBytes(h[:32])
		kInv.inv(&kInv)
		s.mul(&r, &d).add(&s, &e).mul(&s, &kInv)
		if s.isZero() {
			continue
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
// (the SHA-256 of the signed parameters), and returns nil if it is valid.
//
// A P-256 key that this package generated has its private scalar d in
// p256Keys, and for those keys the check costs one base-point
// multiplication: x(((e + r·d)·s⁻¹ mod n)·G) mod n == r. That point is
// u1·G + u2·Q with u1 = e·s⁻¹ and u2 = r·s⁻¹, because Q = d·G, so the
// decision equals ecdsa.VerifyASN1's for every digest and signature; the
// signature is parsed under the same strict DER and 0 < r, s < n rules.
// Other ECDSA keys go through ecdsa.VerifyASN1 and RSA keys through
// rsa.VerifyPKCS1v15.
func VerifySKE(pub crypto.PublicKey, digest, sig []byte) error {
	switch pub := pub.(type) {
	case *ecdsa.PublicKey:
		var ok bool
		if d, found := p256Keys.lookup(pub); found {
			ok = verifyP256(&d, digest, sig)
		} else {
			ok = ecdsa.VerifyASN1(pub, digest, sig)
		}
		if !ok {
			return errBadSKESig
		}
		return nil
	case *rsa.PublicKey:
		return rsa.VerifyPKCS1v15(pub, crypto.SHA256, digest, sig)
	default:
		return fmt.Errorf("pki: unsupported ServerKeyExchange key type %T", pub)
	}
}

// verifyP256 checks an ECDSA signature by the P-256 key with scalar d.
func verifyP256(d *scalar, digest, sig []byte) bool {
	r, s, ok := parseSignature(sig)
	if !ok {
		return false
	}
	// e is the leftmost 256 bits of the digest, reduced mod n.
	if len(digest) > 32 {
		digest = digest[:32]
	}
	var e, u, w scalar
	e.setBytes(digest)
	u.mul(&r, d).add(&u, &e).mul(&u, w.inv(&s))
	var k [32]byte
	u.fillBytes(&k)
	// u = 0 puts the sum at infinity, which ecdsa rejects; so does
	// NewPrivateKey.
	R, err := ecdh.P256().NewPrivateKey(k[:])
	if err != nil {
		return false
	}
	var x scalar
	x.setBytes(R.PublicKey().Bytes()[1:33])
	return x == r
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

// p256Keys records the private scalar of every P-256 key genKey made,
// keyed by the uncompressed public point, for VerifySKE's one-multiplication
// check. ecdsa.GenerateKey derives the point from the scalar, so every
// entry is consistent by construction. Once full it forgets the oldest
// key; a forgotten key only costs the standard-library check.
var p256Keys = keyTable{max: 1 << 15}

type keyTable struct {
	mu    sync.RWMutex
	max   int
	d     map[[65]byte]scalar
	order [][65]byte // insertion order; once full, order[next] is the oldest
	next  int
}

// pointID returns the uncompressed encoding of a P-256 public key.
func pointID(pub *ecdsa.PublicKey) (id [65]byte, ok bool) {
	if pub.Curve != elliptic.P256() || pub.X == nil || pub.Y == nil ||
		pub.X.Sign() < 0 || pub.Y.Sign() < 0 || pub.X.BitLen() > 256 || pub.Y.BitLen() > 256 {
		return id, false
	}
	id[0] = 4
	pub.X.FillBytes(id[1:33])
	pub.Y.FillBytes(id[33:])
	return id, true
}

func (t *keyTable) remember(key *ecdsa.PrivateKey) {
	id, ok := pointID(&key.PublicKey)
	if !ok {
		return
	}
	var buf [32]byte
	var d scalar
	d.setBytes(key.D.FillBytes(buf[:]))
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.d == nil {
		t.d = make(map[[65]byte]scalar)
	}
	if len(t.order) < t.max {
		t.order = append(t.order, id)
	} else {
		delete(t.d, t.order[t.next])
		t.order[t.next] = id
		t.next = (t.next + 1) % t.max
	}
	t.d[id] = d
}

func (t *keyTable) lookup(pub *ecdsa.PublicKey) (scalar, bool) {
	id, ok := pointID(pub)
	if !ok {
		return scalar{}, false
	}
	t.mu.RLock()
	d, ok := t.d[id]
	t.mu.RUnlock()
	return d, ok
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
		key, err := ecdsa.GenerateKey(elliptic.P256(), rnd)
		if err != nil {
			return nil, err
		}
		p256Keys.remember(key)
		return key, nil
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

// RootStore is the simulated browser trust store.
type RootStore struct {
	pool   *x509.CertPool
	nb, na time.Time // the window in which every root is valid
	cache  sync.Map  // [32]byte leaf+name fingerprint -> *trust
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
	leaf, err := x509.ParseCertificate(chain[0])
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
