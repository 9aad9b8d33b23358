// Package handoff carries values between the two ends of one simulated
// connection. Both TLS ends of a simnet connection run in this process,
// so a value one end computes can stand in for a computation the other
// would repeat: the server's ECDHE key or DHE group and exponent for the
// fixed-key client's premaster, the client's premaster for the server's
// agreement, the master secret and key block for the peer's key
// schedule, each direction's AEAD for the peer's reader, the served
// certificate for the client's trust-memo key, and the signer's nonce
// for the ServerKeyExchange check.
//
// A Link lives in the transport of one connection and is cleared when
// the connection closes, so nothing handed over outlives its connection
// or reaches another.
// Each slot has one writer and one reader, the two ends: the writer
// fills it before it queues the flight carrying the value's public
// form, and the reader looks only after reading that flight, so the
// transport's own locking orders the two. A value is taken only when
// the wire bytes (or, for the key schedule, the inputs) the reader holds
// equal those the writer published. Other transports carry no Link, and
// there every lookup misses.
package handoff

import (
	"bytes"
	"crypto/cipher"
	"crypto/ecdh"
	"math/big"
	"net"

	"tlsshortcuts/internal/ffdh"
	"tlsshortcuts/internal/pki"
)

// End names one end of a connection: 0 the dialer's, 1 the listener's.
type End uint8

// Link is one connection's hand-off. The zero value is empty.
type Link struct {
	serverPub []byte           // the server's key-exchange value, as sent
	serverKey *ecdh.PrivateKey // its ECDHE key
	group     *ffdh.Group      // or its DHE group
	exponent  *big.Int         // and exponent

	clientPub, premaster []byte // the client's value, as sent, and its agreement

	keys struct { // the first end's key schedule, with its inputs
		secret  []byte   // the premaster, or a resumed session's master
		randoms [64]byte // client random ‖ server random
		master  [48]byte
		block   [40]byte
	}

	aead [2]struct { // per direction, indexed by the writing end
		key  [16]byte
		aead cipher.AEAD
	}

	cert *pki.Certificate // the certificate whose chain the server sent
	ske  pki.SKENonce
}

// Carrier is a transport that carries a Link: simnet's pipe ends, and
// the wrappers that pass theirs through.
type Carrier interface {
	Handoff() (*Link, End)
}

// Of returns the Link c carries and c's end of it, or nil.
func Of(c net.Conn) (*Link, End) {
	if cc, ok := c.(Carrier); ok {
		return cc.Handoff()
	}
	return nil, 0
}

// SetServerValue publishes the server's key-exchange value pub, and its
// key for ECDHE. Neither may be modified afterwards.
func (l *Link) SetServerValue(pub []byte, key *ecdh.PrivateKey) {
	if l != nil {
		l.serverPub, l.serverKey = pub, key
	}
}

// ServerKey returns the server's ECDHE key if pub, the value the client
// received, is the one the server published.
func (l *Link) ServerKey(pub []byte) *ecdh.PrivateKey {
	if l == nil || l.serverKey == nil || !bytes.Equal(l.serverPub, pub) {
		return nil
	}
	return l.serverKey
}

// SetServerDHE publishes the server's DHE value pub with its group and
// exponent. None may be modified afterwards.
func (l *Link) SetServerDHE(pub []byte, g *ffdh.Group, x *big.Int) {
	if l != nil {
		l.serverPub, l.group, l.exponent = pub, g, x
	}
}

// ServerDHE returns the server's DHE group and exponent if pub, p and
// gen, the value, modulus and generator the client received, are those
// the server published.
func (l *Link) ServerDHE(pub, p, gen []byte) (*ffdh.Group, *big.Int) {
	if l == nil || l.group == nil || !l.serverSent(pub, p, gen) {
		return nil, nil
	}
	return l.group, l.exponent
}

// serverSent reports whether pub is the key-exchange value the server
// published and, for DHE, p and gen its group's modulus and generator.
func (l *Link) serverSent(pub, p, gen []byte) bool {
	if l.serverPub == nil || !bytes.Equal(l.serverPub, pub) {
		return false
	}
	if l.group == nil {
		return true
	}
	gp, gg := l.group.ParamBytes()
	return bytes.Equal(gp, p) && bytes.Equal(gg, gen)
}

// SetPremaster publishes the premaster the client agreed between
// serverPub, the value it received (with p and gen, the DHE modulus and
// generator; nil for ECDHE), and clientPub, the one it sends, if they
// are what the server published. Neither clientPub nor pm may be
// modified afterwards.
func (l *Link) SetPremaster(serverPub, p, gen, clientPub, pm []byte) {
	if l != nil && l.serverSent(serverPub, p, gen) {
		l.clientPub, l.premaster = clientPub, pm
	}
}

// Premaster returns the client's premaster if clientPub, the value the
// server received, is the one the client published. The returned slice
// must not be modified.
func (l *Link) Premaster(clientPub []byte) []byte {
	if l == nil || l.premaster == nil || !bytes.Equal(l.clientPub, clientPub) {
		return nil
	}
	return l.premaster
}

// SetKeySchedule publishes the master secret and the 40-byte key block
// one end derived from secret (a premaster, or on a resumption the
// session's master) and the hello randoms. secret may not be modified
// afterwards.
func (l *Link) SetKeySchedule(secret, clientRandom, serverRandom, master, block []byte) {
	if l == nil {
		return
	}
	k := &l.keys
	k.secret = secret
	copy(k.randoms[:32], clientRandom)
	copy(k.randoms[32:], serverRandom)
	copy(k.master[:], master)
	copy(k.block[:], block)
}

// KeySchedule returns the published master secret and key block if
// secret and the randoms, the peer's own inputs, are byte-equal to those
// they were derived from. The returned slices must not be modified.
func (l *Link) KeySchedule(secret, clientRandom, serverRandom []byte) (master, block []byte) {
	if l == nil || l.keys.secret == nil {
		return nil, nil
	}
	k := &l.keys
	if !bytes.Equal(k.secret, secret) || !bytes.Equal(k.randoms[:32], clientRandom) || !bytes.Equal(k.randoms[32:], serverRandom) {
		return nil, nil
	}
	return k.master[:], k.block[:]
}

// SetAEAD publishes the AEAD end e writes with under a 16-byte key.
func (l *Link) SetAEAD(e End, key []byte, a cipher.AEAD) {
	if l != nil && len(key) == 16 {
		s := &l.aead[e&1]
		copy(s.key[:], key)
		s.aead = a
	}
}

// PeerAEAD returns the AEAD the other end published under key.
func (l *Link) PeerAEAD(e End, key []byte) cipher.AEAD {
	if l == nil || !bytes.Equal(l.aead[(e+1)&1].key[:], key) {
		return nil
	}
	return l.aead[(e+1)&1].aead
}

// SetCertificate publishes the certificate whose chain the server
// sends.
func (l *Link) SetCertificate(c *pki.Certificate) {
	if l != nil {
		l.cert = c
	}
}

// Certificate returns the certificate the server published, or nil.
// pki's RootStore.VerifyServed uses it only for a chain byte-equal to
// its own.
func (l *Link) Certificate() *pki.Certificate {
	if l == nil {
		return nil
	}
	return l.cert
}

// SKE returns the slot pki's SignSKE fills with a ServerKeyExchange
// signature's nonce and its Verify reads, or nil without a Link.
func (l *Link) SKE() *pki.SKENonce {
	if l == nil {
		return nil
	}
	return &l.ske
}
