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

var p256N = elliptic.P256().Params().N

// signP256 returns an ASN.1 DER ECDSA signature of a SHA-256 digest. The
// nonce k is hedged: SHA-512(d ‖ digest ‖ 32 entropy bytes ‖ ctr), whose
// first 32 bytes are rejection-sampled into [1, n-1]. A repeated entropy
// draw still gives a distinct nonce per (key, digest), and the signature
// is a function of (key, digest, entropy). R = k·G comes from
// crypto/ecdh's base-point multiplication. This skips the standard
// library's per-signature DRBG set-up and constant-time inversion, which
// cost more than the multiplication; like the rest of the simulator it is
// not hardened against timing side channels.
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
	e := new(big.Int).SetBytes(digest)
	r, s := new(big.Int), new(big.Int)
	for ctr := 0; ctr < 256; ctr++ {
		msg[len(msg)-1] = byte(ctr)
		h := sha512.Sum512(msg[:])
		k, err := ecdh.P256().NewPrivateKey(h[:32]) // rejects 0 and k >= n
		if err != nil {
			continue
		}
		pub := k.PublicKey().Bytes() // 0x04 ‖ x ‖ y
		r.SetBytes(pub[1:33])
		if r.Cmp(p256N) >= 0 {
			r.Sub(r, p256N)
		}
		if r.Sign() == 0 {
			continue
		}
		kInv := new(big.Int).SetBytes(h[:32])
		kInv.ModInverse(kInv, p256N)
		s.Mul(r, key.D)
		s.Add(s, e)
		s.Mul(s, kInv)
		s.Mod(s, p256N)
		if s.Sign() == 0 {
			continue
		}
		sig := make([]byte, 2, 2+2*(2+33))
		sig[0] = 0x30 // SEQUENCE
		sig = appendASN1Int(sig, r)
		sig = appendASN1Int(sig, s)
		sig[1] = byte(len(sig) - 2)
		return sig, nil
	}
	return nil, fmt.Errorf("pki: no valid ECDSA nonce in 256 candidates")
}

// appendASN1Int appends 0 < v < 2^256 as a DER INTEGER.
func appendASN1Int(b []byte, v *big.Int) []byte {
	var buf [33]byte
	mag := v.FillBytes(buf[1:])
	for len(mag) > 1 && mag[0] == 0 {
		mag = mag[1:]
	}
	if mag[0]&0x80 != 0 { // keep the value positive
		mag = buf[len(buf)-len(mag)-1:]
	}
	b = append(b, 0x02, byte(len(mag)))
	return append(b, mag...)
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

// RootStore is the simulated browser trust store.
type RootStore struct {
	pool  *x509.CertPool
	cache sync.Map // [32]byte chain+name fingerprint -> bool
}

// NewRootStore builds a store trusting the given roots.
func NewRootStore(roots ...*RootCA) *RootStore {
	p := x509.NewCertPool()
	for _, r := range roots {
		p.AddCert(r.Cert)
	}
	return &RootStore{pool: p}
}

// Verify reports whether the DER chain is browser-trusted for name at the
// given time. Results are memoized by (leaf, name) — the study re-checks
// the same chain tens of thousands of times.
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
		return v.(bool)
	}
	ok := s.verify(chain, name, now)
	s.cache.Store(key, ok)
	return ok
}

func (s *RootStore) verify(chain [][]byte, name string, now time.Time) bool {
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
		Roots:         s.pool,
		Intermediates: inter,
		CurrentTime:   now,
		KeyUsages:     []x509.ExtKeyUsage{x509.ExtKeyUsageServerAuth},
	})
	return err == nil
}
