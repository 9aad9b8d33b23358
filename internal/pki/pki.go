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
	"crypto/rsa"
	"crypto/sha256"
	"crypto/sha512"
	"crypto/x509"
	"crypto/x509/pkix"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/big"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"tlsshortcuts/internal/telemetry"
)

// Alg selects the leaf/CA signature algorithm.
type Alg int

const (
	ECDSAP256 Alg = iota
	RSA2048
)

// Certificate bundles a leaf with its chain and private key — everything a
// terminator needs to serve it.
type Certificate struct {
	Chain [][]byte // DER, leaf first
	Key   crypto.Signer
}

// Leaf is what a ServerKeyExchange check reads of a leaf certificate: its
// DER, which identifies the certificate, and its public key.
type Leaf struct {
	Raw       []byte
	PublicKey crypto.PublicKey
}

// leaf returns c's Leaf without a parse: its DER is Chain[0], and its
// public key is Key's.
func (c *Certificate) leaf() *Leaf { return &Leaf{Raw: c.Chain[0], PublicKey: c.Key.Public()} }

// ParseLeaf parses a leaf certificate's DER. The Leaf aliases der.
func ParseLeaf(der []byte) (*Leaf, error) {
	c, err := x509.ParseCertificate(der)
	if err != nil {
		return nil, err
	}
	return &Leaf{Raw: der, PublicKey: c.PublicKey}, nil
}

// SignSKE appends to dst a signature of the SHA-256 digest of a
// ServerKeyExchange's signed parameters by the certificate's key. P-256
// ECDSA keys use a lean hedged signer (signP256), which also hands the
// signature's nonce to a verifier through h when h is not nil; other
// keys sign through crypto.Signer.
func (c *Certificate) SignSKE(dst []byte, entropy io.Reader, digest []byte, h *SKENonce) ([]byte, error) {
	if k, ok := c.Key.(*ecdsa.PrivateKey); ok && k.Curve == elliptic.P256() {
		out, err := signP256(dst, k, entropy, digest, h)
		if err == nil && h != nil {
			h.signer = c
		}
		return out, err
	}
	return signOther(dst, c.Key, entropy, digest)
}

// signOther appends a crypto.Signer signature. It stays out of line so
// its temporaries are not part of SignSKE's frame (see signP256).
//
//go:noinline
func signOther(dst []byte, key crypto.Signer, entropy io.Reader, digest []byte) ([]byte, error) {
	sig, err := key.Sign(entropy, digest, crypto.SHA256)
	return append(dst, sig...), err
}

// maxP256SigLen is the longest DER signature signP256 makes: a SEQUENCE
// of two INTEGERs of at most 33 bytes each.
const maxP256SigLen = 2 + 2*(2+33)

// p256MsgLen is the length of the message signP256 hashes into a nonce:
// d ‖ digest ‖ entropy ‖ ctr.
const p256MsgLen = 32 + sha256.Size + 32 + 1

// signP256 appends to dst an ASN.1 DER ECDSA signature of a SHA-256
// digest. The nonce k is hedged: SHA-512(d ‖ digest ‖ 32 entropy bytes
// ‖ ctr), whose first 32 bytes are rejection-sampled into [1, n-1]. A
// repeated entropy draw still gives a distinct nonce per (key, digest),
// and the signature is a function of (key, digest, entropy). R = k·G
// comes from crypto/ecdh's base-point multiplication and s = k⁻¹(e + r·d)
// from the scalar helper. This skips the standard library's
// per-signature DRBG set-up and constant-time inversion, which cost more
// than the multiplication; like the rest of the simulator it is not
// hardened against timing side channels. When h is not nil it receives
// the signature's r and k.
//
// The signer's scratch, the message (it holds d) and the nonce
// candidate, lives in the spare capacity of dst and is cleared before
// the signature is appended over it: bytes that pass through an
// interface (the entropy read, the candidate handed to ecdh.Curve) would
// move a local array to the heap. The curve multiplication is the
// deepest point of a server goroutine's stack, close to a doubling, so
// the hash and the arithmetic around it run in helpers whose frames are
// gone by then, and signP256's own frame stays smaller than it was with
// its scratch on the heap.
func signP256(dst []byte, key *ecdsa.PrivateKey, entropy io.Reader, digest []byte, h *SKENonce) ([]byte, error) {
	if len(digest) != sha256.Size {
		return dst, fmt.Errorf("pki: SKE digest is %d bytes, want %d", len(digest), sha256.Size)
	}
	dst = slices.Grow(dst, max(maxP256SigLen, p256MsgLen+32))
	scratch := dst[len(dst) : len(dst)+p256MsgLen+32]
	msg, cand := scratch[:p256MsgLen], scratch[p256MsgLen:]
	key.D.FillBytes(msg[:32])
	copy(msg[32:], digest)
	if _, err := io.ReadFull(entropy, msg[32+sha256.Size:p256MsgLen-1]); err != nil {
		clear(scratch)
		return dst, fmt.Errorf("pki: reading signing entropy: %w", err)
	}
	for ctr := 0; ctr < 256; ctr++ {
		msg[p256MsgLen-1] = byte(ctr)
		hashNonce(cand, msg)
		R, err := ecdh.P256().NewPrivateKey(cand) // rejects 0 and k >= n
		if err != nil {
			continue
		}
		if sig, ok := finishP256(dst, scratch, R, digest, h); ok {
			return sig, nil
		}
	}
	clear(scratch)
	return dst, fmt.Errorf("pki: no valid ECDSA nonce in 256 candidates")
}

// hashNonce sets cand to the first 32 bytes of SHA-512(msg).
//
//go:noinline
func hashNonce(cand, msg []byte) {
	sum := sha512.Sum512(msg)
	copy(cand, sum[:32])
}

// finishP256 completes signP256's signature for the nonce candidate k in
// scratch (d ‖ digest ‖ entropy ‖ ctr ‖ k) and its point R: unless r or
// s is 0 it hands r and k to h, clears scratch and appends the DER
// signature to dst, over it.
//
//go:noinline
func finishP256(dst, scratch []byte, R *ecdh.PrivateKey, digest []byte, h *SKENonce) ([]byte, bool) {
	// The digest is as wide as the order, so it is e unshifted.
	var d, e, k, r, s, kInv scalar
	r.setBytes(R.PublicKey().Bytes()[1:33]) // x(R) mod n
	if r.isZero() {
		return dst, false
	}
	d.setBytes(scratch[:32])
	e.setBytes(digest)
	k.setBytes(scratch[p256MsgLen:])
	s.mul(&r, &d).add(&s, &e).mul(&s, kInv.inv(&k))
	if s.isZero() {
		return dst, false
	}
	if h != nil {
		h.r, h.k = r, k
	}
	clear(scratch)
	start := len(dst)
	sig := append(dst, 0x30, 0) // SEQUENCE
	sig = appendASN1Int(sig, &r)
	sig = appendASN1Int(sig, &s)
	sig[start+1] = byte(len(sig) - start - 2)
	return sig, true
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
// goes to VerifySKE. h may be nil. handedOver counts the signatures
// the nonce verified.
func (h *SKENonce) Verify(leaf *Leaf, digest, sig []byte, handedOver *telemetry.Counter) error {
	if h != nil && h.signer != nil && bytes.Equal(h.signer.Chain[0], leaf.Raw) && h.verify(digest, sig) {
		handedOver.Inc()
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
	return *w.mul(&s, &h.k) == u
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
	return &Certificate{Chain: [][]byte{der, r.Cert.Raw}, Key: key}, nil
}

// RootStore is the simulated browser trust store. It also keeps, for
// each leaf its world serves, the Leaf a ServerKeyExchange check reads,
// so those live exactly as long as the world does; it keeps no parsed
// certificate.
type RootStore struct {
	pool   *x509.CertPool
	nb, na time.Time // the window in which every root is valid
	chains sync.Map  // [32]byte chain key -> *trust
	names  sync.Map  // nameKey -> bool, whether the chain's leaf is valid for the name
	leaves sync.Map  // [32]byte leaf DER fingerprint -> *Leaf

	chainChecks atomic.Uint64 // x509 chain verifications run
}

// nameKey names one memoized hostname verdict: a chain by its key, and
// the name its leaf was checked for.
type nameKey struct {
	chain [sha256.Size]byte
	name  string
}

// trust is a memoized chain verdict and the window [nb, na] in which it
// holds.
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
// returns it without a parse: its DER is the certificate's own
// Chain[0], and its public key is Key's.
func (s *RootStore) AddLeaf(c *Certificate) {
	s.leaves.Store(sha256.Sum256(c.Chain[0]), c.leaf())
}

// Leaf returns the Leaf for a leaf's DER: the one AddLeaf recorded, or
// else a copy of der and the key from one parse, which the store keeps
// for its lifetime. The scanner checks ServerKeyExchange signatures
// against the same few hundred leaves tens of thousands of times. The
// caller may reuse der afterwards.
func (s *RootStore) Leaf(der []byte) (*Leaf, error) {
	key := sha256.Sum256(der)
	if v, ok := s.leaves.Load(key); ok {
		return v.(*Leaf), nil
	}
	leaf, err := ParseLeaf(bytes.Clone(der))
	if err != nil {
		return nil, err
	}
	v, _ := s.leaves.LoadOrStore(key, leaf)
	return v.(*Leaf), nil
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
// given time, as x509's Verify with the store's roots would: the chain
// builds to a root at that time, and its leaf is valid for name (any
// name when name is empty). The study re-checks the same chains tens of
// thousands of times, so both halves are memoized. A chain's verdict is
// keyed by the SHA-256 of every certificate in it, so a chain that
// differs in any certificate is checked on its own, and is reused only
// in the window in which every certificate of the chain and every root
// is valid: inside it no validity check can fail, so the verdict cannot
// depend on the time, and outside it the chain is verified again. The
// name's verdict does not depend on the time, so a leaf served under
// several names has its chain and signature checked once.
func (s *RootStore) Verify(chain [][]byte, name string, now time.Time) bool {
	if len(chain) == 0 {
		return false
	}
	key := chainKey(chain)
	var t *trust
	var leaf *x509.Certificate // parsed by this call's chain check, if any
	if v, ok := s.chains.Load(key); ok && v.(*trust).holdsAt(now) {
		t = v.(*trust)
	} else {
		t, leaf = s.verify(chain, now)
		if t.holdsAt(now) {
			s.chains.Store(key, t)
		}
	}
	if !t.ok || name == "" {
		return t.ok
	}
	nk := nameKey{key, name}
	if v, ok := s.names.Load(nk); ok {
		return v.(bool)
	}
	if leaf == nil {
		leaf, _ = x509.ParseCertificate(chain[0])
	}
	valid := leaf != nil && leaf.VerifyHostname(name) == nil
	s.names.Store(nk, valid)
	return valid
}

// chainKey is the SHA-256 of the chain's certificates, each prefixed
// with its length.
func chainKey(chain [][]byte) [sha256.Size]byte {
	h := sha256.New()
	var n [4]byte
	for _, der := range chain {
		binary.BigEndian.PutUint32(n[:], uint32(len(der)))
		h.Write(n[:])
		h.Write(der)
	}
	var key [sha256.Size]byte
	h.Sum(key[:0])
	return key
}

func (t *trust) holdsAt(now time.Time) bool { return !now.Before(t.nb) && !now.After(t.na) }

// verify checks that the chain builds to a root at now, whatever the
// leaf's names, and returns the leaf it parsed (nil if it does not
// parse).
func (s *RootStore) verify(chain [][]byte, now time.Time) (*trust, *x509.Certificate) {
	s.chainChecks.Add(1)
	t := &trust{nb: s.nb, na: s.na}
	leaf, err := x509.ParseCertificate(chain[0])
	if err != nil {
		return t, nil
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
		Roots:         s.pool,
		Intermediates: inter,
		CurrentTime:   now,
		KeyUsages:     []x509.ExtKeyUsage{x509.ExtKeyUsageServerAuth},
	})
	t.ok = err == nil
	return t, leaf
}
