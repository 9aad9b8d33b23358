package keyex

import (
	"crypto/ecdh"
	"crypto/elliptic"
	"io"
	"math/big"
	"sync"

	"tlsshortcuts/internal/drbg"
	"tlsshortcuts/internal/telemetry"
)

// Premaster exchange cache: both ends of every simulated handshake live in
// this process, and the client computes the shared secret before its
// ClientKeyExchange is written. The server would then recompute the
// mathematically identical bytes from its own private half. Keying the
// finished agreement by the two public values lets the server side skip
// its scalar multiplication (ECDHE) or modular exponentiation (DHE)
// entirely: for any (serverPub, clientPub) pair there is exactly one
// shared secret, so a lookup hit returns the same bytes the computation
// would. The client's store happens-before the server's lookup (the store
// precedes the pipe write carrying the CKE), and a miss simply falls back
// to the real computation, so correctness never depends on the cache.
//
// Entries hold only values produced by a completed, validated agreement;
// an entry can therefore never admit a public value the slow path would
// have rejected. The hit counter is wall/-prefixed: hit totals depend on
// wholesale-clear timing and process history, not on campaign content.
var pmx struct {
	mu sync.Mutex
	m  map[string]map[string][]byte // serverPub -> clientPub -> premaster
	n  int
}

// maxExchangeEntries bounds the cache; Fresh-policy servers insert a new
// serverPub per connection, so the cache is cleared wholesale every
// maxExchangeEntries handshakes and useful (Reuse-policy) entries are
// re-established by the next client store.
const maxExchangeEntries = 16384

// PremasterStore records the agreed premaster for a public-value pair.
// All three slices must be immutable from the caller's side: the keys are
// copied by the string conversion, but pm is retained as-is.
func PremasterStore(serverPub, clientPub, pm []byte) {
	pmx.mu.Lock()
	if pmx.n >= maxExchangeEntries {
		pmx.m, pmx.n = nil, 0
	}
	if pmx.m == nil {
		pmx.m = make(map[string]map[string][]byte, 1024)
	}
	inner := pmx.m[string(serverPub)]
	if inner == nil {
		inner = make(map[string][]byte, 1)
		pmx.m[string(serverPub)] = inner
	}
	if _, ok := inner[string(clientPub)]; !ok {
		pmx.n++
	}
	inner[string(clientPub)] = pm
	pmx.mu.Unlock()
}

// PremasterLookup returns the premaster previously agreed for the pair,
// or nil. The returned slice must not be modified. Every store is
// consumed by exactly one lookup — the server side of the same
// handshake — so a hit deletes the entry: resident cache size stays at
// the number of in-flight handshakes rather than maxExchangeEntries.
// Two concurrent handshakes against the same reuse-keyed server share a
// (serverPub, clientPub) pair; the one losing the delete race just
// recomputes the identical bytes.
func PremasterLookup(serverPub, clientPub []byte) []byte {
	pmx.mu.Lock()
	inner := pmx.m[string(serverPub)]
	pm := inner[string(clientPub)]
	if pm != nil {
		delete(inner, string(clientPub))
		if len(inner) == 0 {
			delete(pmx.m, string(serverPub))
		}
		pmx.n--
	}
	pmx.mu.Unlock()
	if pm != nil {
		telemetry.Global().Counter("wall/keyex/premaster_exchange_hit").Inc()
	}
	return pm
}

// The scanning client's process-wide fixed P-256 key. The derivation
// label predates this package hosting the key (the client derived it
// in-package) and is load-bearing: the public point travels in every
// ClientKeyExchange, so changing the label would change campaign bytes.
var fixedClient struct {
	once   sync.Once
	key    *ecdh.PrivateKey
	pub    []byte   // marshaled public point, memoized alongside
	scalar *big.Int // private scalar, for the server-primed exchange
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
				fixedClient.scalar = new(big.Int).SetBytes(seed[:])
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

// Scalar exchange, the server→client direction. When a server generates
// a fresh ECDHE key it publishes its private scalar keyed by the public
// point — one map insert, no extra curve work — before the SKE carrying
// that point leaves. A fixed-key client that actually completes the
// handshake (key-exchange scans disconnect after the SKE and never need
// a premaster) then derives the shared secret as (x*xs mod n)*G: a
// base-point multiplication against the generator's precomputed tables,
// roughly a third of the arbitrary-point x*Ys it replaces. The points
// are equal — x*Ys = x*(xs*G) = (x*xs mod n)*G — and both ecdh.ECDH and
// the public-key serialization expose the 32-byte big-endian
// x-coordinate, so the derived bytes match the slow path exactly.
//
// Fresh-mode scalars go in the volatile map: a fresh public value
// belongs to exactly one connection, so a consuming lookup deletes the
// entry, and so does a kex-only client that disconnects after the SKE
// (DiscardScalar). The map's residency is bounded by in-flight
// handshakes plus the entries of handshakes that failed between the
// SKE and the premaster (cleared wholesale at the cap). Reuse-mode
// scalars go in the sticky map: the same value serves every connection
// of an epoch and is only re-stored on an epoch-cache miss, so those
// entries survive lookups and volatile churn alike. Splitting the maps
// keeps fresh-probe turnover from evicting the long-lived reuse
// entries.
var sxs struct {
	mu     sync.Mutex
	vol    map[string]*big.Int // fresh serverPub -> scalar, delete-on-consume
	sticky map[string]*big.Int // reuse serverPub -> scalar, one per epoch
}

// maxVolatileScalars bounds the volatile scalar map. Unconsumed entries
// come only from handshakes cut off after the SKE; consumed entries
// delete themselves, so a small cap costs nearly nothing in hits (a
// store is consumed within its own connection's round-trip).
const maxVolatileScalars = 4096

var p256Order = elliptic.P256().Params().N

func scalarStore(pub []byte, priv *ecdh.PrivateKey, sticky bool) {
	d := new(big.Int).SetBytes(priv.Bytes())
	sxs.mu.Lock()
	if sticky {
		if sxs.sticky == nil || len(sxs.sticky) >= maxExchangeEntries {
			sxs.sticky = make(map[string]*big.Int, 64)
		}
		sxs.sticky[string(pub)] = d
	} else {
		if sxs.vol == nil || len(sxs.vol) >= maxVolatileScalars {
			sxs.vol = make(map[string]*big.Int, 1024)
		}
		sxs.vol[string(pub)] = d
	}
	sxs.mu.Unlock()
}

// DiscardScalar deletes the fresh-mode scalar published for serverPub,
// if any. A client that stops after the ServerKeyExchange calls it, so
// a kex-only probe consumes its entry the way a completed handshake's
// lookup does. Reuse-mode scalars serve other connections and stay.
func DiscardScalar(serverPub []byte) {
	sxs.mu.Lock()
	delete(sxs.vol, string(serverPub))
	sxs.mu.Unlock()
}

// ClientPremasterFromScalar derives the premaster for the fixed client
// key against serverPub, if that server published its scalar; nil
// otherwise. The returned slice must not be modified.
func ClientPremasterFromScalar(serverPub []byte) []byte {
	sxs.mu.Lock()
	d0 := sxs.vol[string(serverPub)]
	if d0 != nil {
		delete(sxs.vol, string(serverPub))
	} else {
		d0 = sxs.sticky[string(serverPub)]
	}
	sxs.mu.Unlock()
	if d0 == nil {
		return nil
	}
	initFixedClient()
	d := new(big.Int).Mul(d0, fixedClient.scalar)
	d.Mod(d, p256Order)
	var buf [32]byte
	d.FillBytes(buf[:])
	// d cannot be 0 mod n: both factors are nonzero mod the prime n.
	pk, err := ecdh.P256().NewPrivateKey(buf[:])
	if err != nil {
		return nil // fall back to the real computation
	}
	telemetry.Global().Counter("wall/keyex/scalar_exchange_hit").Inc()
	return pk.PublicKey().Bytes()[1:33]
}
