package keyex

import (
	"crypto/ecdh"
	"io"
	"sync"

	"tlsshortcuts/internal/drbg"
	"tlsshortcuts/internal/pki"
)

// The scanning client's process-wide fixed P-256 key. The derivation
// label predates this package hosting the key (the client derived it
// in-package) and is load-bearing: the public point travels in every
// ClientKeyExchange, so changing the label would change campaign bytes.
var fixedClient struct {
	once   sync.Once
	key    *ecdh.PrivateKey
	pub    []byte   // marshaled public point, memoized alongside
	scalar [32]byte // private scalar, for the server-primed exchange
}

func initFixedClient() {
	fixedClient.once.Do(func() {
		// Explicit scalar bytes, not GenerateKey: GenerateKey does not
		// consume a reader deterministically, and this key must be the
		// same in every process.
		r := drbg.NewString("tlsclient|fixed-ecdhe")
		for i := 0; i < 64; i++ {
			var seed [32]byte
			if _, err := io.ReadFull(r, seed[:]); err != nil {
				break
			}
			if k, err := ecdh.P256().NewPrivateKey(seed[:]); err == nil {
				fixedClient.key = k
				fixedClient.pub = k.PublicKey().Bytes()
				fixedClient.scalar = seed
				return
			}
		}
		panic("keyex: fixed client ECDHE derivation failed")
	})
}

// FixedClientECDHE returns the fixed client key and its marshaled public
// point. Neither may be modified.
func FixedClientECDHE() (*ecdh.PrivateKey, []byte) {
	initFixedClient()
	return fixedClient.key, fixedClient.pub
}

// Scalar exchange, the server→client direction. A fixed-key client
// that holds the server's ECDHE private key (handed over on the
// connection, package handoff) derives the shared secret as
// (x*xs mod n)*G: a base-point multiplication against the generator's
// precomputed tables, roughly a third of the arbitrary-point x*Ys it
// replaces. The points are equal — x*Ys = x*(xs*G) = (x*xs mod n)*G —
// and both ecdh.ECDH and the public-key serialization expose the
// 32-byte big-endian x-coordinate, so the derived bytes match the slow
// path exactly.
//
// Reuse-mode keys are also memoized by public value in sticky, a pure
// function of the policy's epoch like the epoch cache: the same value
// serves every connection of an epoch and is only stored on an
// epoch-cache miss. ClientPremasterFromScalar reads it.
var sxs struct {
	mu     sync.Mutex
	sticky map[string]*ecdh.PrivateKey // reuse serverPub -> key, one per epoch
}

func scalarStore(pub []byte, priv *ecdh.PrivateKey) {
	sxs.mu.Lock()
	if sxs.sticky == nil || len(sxs.sticky) >= maxStickyScalars {
		sxs.sticky = make(map[string]*ecdh.PrivateKey, 64)
	}
	sxs.sticky[string(pub)] = priv
	sxs.mu.Unlock()
}

// maxStickyScalars bounds the reuse-key memo across many campaigns in
// one process; one campaign stores one key per reuse policy epoch.
const maxStickyScalars = 16384

// ClientPremasterFromScalar derives the premaster for the fixed client
// key against serverPub, if a reuse-mode server derived that value in
// this process; nil otherwise. The returned slice must not be modified.
func ClientPremasterFromScalar(serverPub []byte) []byte {
	sxs.mu.Lock()
	k := sxs.sticky[string(serverPub)]
	sxs.mu.Unlock()
	return FixedClientPremaster(k)
}

// FixedClientPremaster derives the premaster for the fixed client key
// against the server's ECDHE key, or returns nil when server is nil.
// The returned slice must not be modified.
func FixedClientPremaster(server *ecdh.PrivateKey) []byte {
	if server == nil {
		return nil
	}
	initFixedClient()
	var d [32]byte
	pki.MulModOrder(&d, server.Bytes(), fixedClient.scalar[:])
	// d cannot be 0 mod n: both factors are nonzero mod the prime n.
	pk, err := ecdh.P256().NewPrivateKey(d[:])
	if err != nil {
		return nil // fall back to the real computation
	}
	// The x-coordinate alone, in a slice of its own size.
	return publicBytes(pk)[1:33]
}
