// Package handoff carries values between the two ends of one simulated
// connection. Both TLS ends of a simnet connection run in this process,
// so a value one end computes can stand in for a computation the other
// would repeat: the server's ECDHE key for the fixed-key client's
// premaster, the client's premaster for the server's agreement, each
// direction's AEAD for the peer's reader, and the signer's nonce for
// the ServerKeyExchange check.
//
// A Link lives in the transport of one connection and is freed with it,
// so nothing handed over outlives its connection or reaches another.
// Each slot has one writer and one reader, the two ends: the writer
// fills it before it queues the flight carrying the value's public
// form, and the reader looks only after reading that flight, so the
// transport's own locking orders the two. A value is taken only when
// the wire bytes the reader holds equal those the writer published.
// Other transports carry no Link, and there every lookup misses.
package handoff

import (
	"bytes"
	"crypto/cipher"
	"crypto/ecdh"
	"net"

	"tlsshortcuts/internal/pki"
	"tlsshortcuts/internal/telemetry"
)

// End names one end of a connection: 0 the dialer's, 1 the listener's.
type End uint8

// Link is one connection's hand-off. The zero value is empty.
type Link struct {
	serverPub []byte           // the server's key-exchange value, as sent
	serverKey *ecdh.PrivateKey // its ECDHE key

	clientPub, premaster []byte // the client's value, as sent, and its agreement

	aead [2]struct { // per direction, indexed by the writing end
		key  [16]byte
		aead cipher.AEAD
	}

	ske pki.SKENonce
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

// SetPremaster publishes the premaster the client agreed between
// serverPub, the value it received, and clientPub, the one it sends,
// if serverPub is the value the server published. Neither clientPub nor
// pm may be modified afterwards.
func (l *Link) SetPremaster(serverPub, clientPub, pm []byte) {
	if l != nil && l.serverPub != nil && bytes.Equal(l.serverPub, serverPub) {
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
	telemetry.Global().Counter("keyex/premaster_exchange_hit").Inc()
	return l.premaster
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

// SKE returns the slot pki's SignSKE fills with a ServerKeyExchange
// signature's nonce and its Verify reads, or nil without a Link.
func (l *Link) SKE() *pki.SKENonce {
	if l == nil {
		return nil
	}
	return &l.ske
}
