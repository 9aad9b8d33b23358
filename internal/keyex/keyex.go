// Package keyex is the unified key-exchange abstraction over FFDH and
// ECDHE (P-256), with deterministic epoch-derived private values so server
// policies can reuse a KEX value across connections and terminators.
//
// In Reuse mode the derived value is a pure function of (Seed, Base,
// Period, epoch), so it is cached per epoch: re-deriving it on every
// handshake (a SHA-256 loop plus scalar validation for P-256, a modular
// exponentiation for FFDH) produced bit-identical results at ~100x the
// cost. The package tests check cache hits against an independent
// derivation from the epoch seed.
package keyex

import (
	"bytes"
	"crypto/ecdh"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"math/big"
	"sync"
	"time"

	"tlsshortcuts/internal/ffdh"
	"tlsshortcuts/internal/telemetry"
)

// ReuseMode says how a server treats its ephemeral KEX value.
type ReuseMode int

const (
	Fresh ReuseMode = iota // new value per handshake (true ephemerality)
	Reuse                  // epoch-derived value, stable for Period
)

func (m ReuseMode) String() string {
	if m == Reuse {
		return "reuse"
	}
	return "fresh"
}

// Policy configures server-side KEX value handling. A zero Policy means a
// fresh value per handshake. Seed names the value-sharing group: two
// terminators with the same Seed (and Base/Period) serve the same value.
type Policy struct {
	Mode   ReuseMode
	Period time.Duration
	Base   time.Time
	Seed   []byte
}

// epoch returns the policy's epoch counter at now.
func (p *Policy) epoch(now time.Time) uint64 {
	if p.Period <= 0 {
		return 0
	}
	d := now.Sub(p.Base)
	if d <= 0 {
		return 0
	}
	return uint64(d / p.Period)
}

// epochSeedAt folds an epoch counter into the policy's seed.
func (p *Policy) epochSeedAt(e uint64) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], e)
	h := sha256.New()
	h.Write(p.Seed)
	h.Write(b[:])
	return h.Sum(nil)
}

// ---- epoch-keyed derivation cache ----

// cacheKey identifies one policy-epoch derivation. Two policies with the
// same (Seed, Base, Period) derive the same values, so terminators in a
// sharing group hit a single entry.
type cacheKey struct {
	kind   uint8 // 'E' ecdhe, 'D' dhe
	group  *ffdh.Group
	seed   string
	base   int64
	period time.Duration
	epoch  uint64
}

type cacheVal struct {
	ecdheKey *ecdh.PrivateKey
	ecdhePub []byte
	dhePriv  *big.Int
	dhePub   []byte
}

var (
	cacheMu sync.RWMutex
	cache   = map[cacheKey]*cacheVal{}
)

// maxCacheEntries bounds the cache across many campaigns in one process;
// one campaign touches a handful of epochs per reuse policy.
const maxCacheEntries = 4096

func cacheGet(k cacheKey) (*cacheVal, bool) {
	cacheMu.RLock()
	v, ok := cache[k]
	cacheMu.RUnlock()
	return v, ok
}

func cachePut(k cacheKey, v *cacheVal, fill *telemetry.Counter) {
	cacheMu.Lock()
	if len(cache) >= maxCacheEntries {
		cache = map[cacheKey]*cacheVal{}
	}
	if _, ok := cache[k]; !ok {
		// Fill count under the write lock with an existence check: two
		// workers may both miss the same epoch concurrently, so counting
		// misses would be racy — counting first inserts is not.
		fill.Inc()
	}
	cache[k] = v
	cacheMu.Unlock()
}

// Counters counts the server values handed out, fresh or epoch-reused,
// and the epoch cache's hits and first fills. Hits and fills are wall/
// metrics: the cache is package-global and persists across campaigns in
// one process, so what a lookup finds depends on process history. The
// zero value counts nothing, and the package functions are its methods
// on the zero value.
type Counters struct{ fresh, reuse, hit, fill *telemetry.Counter }

// NewCounters resolves r's keyex/ counters once.
func NewCounters(r *telemetry.Registry) Counters {
	return Counters{
		fresh: r.LazyCounter("keyex/fresh_keys"),
		reuse: r.LazyCounter("keyex/reuse_lookups"),
		hit:   r.LazyCounter("wall/keyex/cache_hit"),
		fill:  r.LazyCounter("wall/keyex/cache_fill"),
	}
}

func (p *Policy) key(kind uint8, e uint64) cacheKey {
	return cacheKey{kind: kind, seed: string(p.Seed), base: p.Base.UnixNano(), period: p.Period, epoch: e}
}

// deriveECDHE runs the deterministic P-256 derivation loop for seed,
// hashing on the stack. Each candidate scalar reaches ecdh.Curve through
// buf, which the curve's key constructor keeps reachable, so those 32
// bytes are the derivation's only scratch that can leave the stack; buf
// may alias seed.
func deriveECDHE(seed []byte, buf *[32]byte) (*ecdh.PrivateKey, error) {
	var mb [len("ecdhe-priv") + 32 + 1]byte // label ‖ seed ‖ counter
	msg := append(append(mb[:0], "ecdhe-priv"...), seed...)
	msg = append(msg, 0)
	for i := 0; i < 64; i++ {
		msg[len(msg)-1] = byte(i)
		*buf = sha256.Sum256(msg)
		if k, err := ecdh.P256().NewPrivateKey(buf[:]); err == nil {
			return k, nil
		}
	}
	return nil, fmt.Errorf("keyex: could not derive P-256 key")
}

// publicBytes returns k's public point in a slice of its own size:
// returned as is, the 133-byte array ecdh's Bytes fills would move to
// the heap with it. Out of line, so that array is not part of the frame
// under the server's key derivation, the deepest point of its stack
// after the signature's.
//
//go:noinline
func publicBytes(k *ecdh.PrivateKey) []byte { return bytes.Clone(k.PublicKey().Bytes()) }

// ECDHEKeyPub returns the server's P-256 private key for this handshake
// under the policy, plus the serialized public value (the bytes the
// ServerKeyExchange carries); rand supplies entropy for Fresh mode. In
// Reuse mode both come from the epoch cache, so neither the derivation
// loop nor the point serialization runs more than once per epoch. The
// returned slice must not be modified.
func ECDHEKeyPub(p *Policy, now time.Time, rand io.Reader) (*ecdh.PrivateKey, []byte, error) {
	return Counters{}.ECDHEKeyPub(p, now, rand)
}

// ECDHEKeyPub is the package function counting into c.
func (c Counters) ECDHEKeyPub(p *Policy, now time.Time, rand io.Reader) (*ecdh.PrivateKey, []byte, error) {
	if p == nil || p.Mode == Fresh {
		c.fresh.Inc()
		// Draw explicit scalar bytes instead of ecdh.GenerateKey(rand):
		// GenerateKey does not consume a caller-supplied reader
		// deterministically, which would make fresh server values (and the
		// recorded ECDHE spans) differ between same-seed runs. The seed
		// and the derivation share one buffer.
		buf := new([32]byte)
		if _, err := rand.Read(buf[:]); err != nil {
			return nil, nil, err
		}
		k, err := deriveECDHE(buf[:], buf)
		if err != nil {
			return nil, nil, err
		}
		return k, publicBytes(k), nil
	}
	c.reuse.Inc()
	e := p.epoch(now)
	ck := p.key('E', e)
	if v, ok := cacheGet(ck); ok {
		c.hit.Inc()
		return v.ecdheKey, v.ecdhePub, nil
	}
	k, err := deriveECDHE(p.epochSeedAt(e), new([32]byte))
	if err != nil {
		return nil, nil, err
	}
	pub := publicBytes(k)
	cachePut(ck, &cacheVal{ecdheKey: k, ecdhePub: pub}, c.fill)
	scalarStore(pub, k)
	return k, pub, nil
}

// DHEKey returns the server's FFDH private exponent and its serialized
// public value (left-padded to the modulus width); rand supplies the
// exponent seed in Fresh mode. In Reuse mode the exponent derivation and
// the g^x modexp are served from the epoch cache. The returned values
// must not be modified.
func DHEKey(g *ffdh.Group, p *Policy, now time.Time, rand io.Reader) (*big.Int, []byte, error) {
	return Counters{}.DHEKey(g, p, now, rand)
}

// DHEKey is the package function counting into c.
func (c Counters) DHEKey(g *ffdh.Group, p *Policy, now time.Time, rand io.Reader) (*big.Int, []byte, error) {
	if p == nil || p.Mode == Fresh {
		c.fresh.Inc()
		seed := make([]byte, 32)
		if _, err := rand.Read(seed); err != nil {
			return nil, nil, err
		}
		priv := g.PrivateFromSeed(seed)
		return priv, g.Bytes(g.Public(priv)), nil
	}
	c.reuse.Inc()
	e := p.epoch(now)
	ck := p.key('D', e)
	ck.group = g
	if v, ok := cacheGet(ck); ok {
		c.hit.Inc()
		return v.dhePriv, v.dhePub, nil
	}
	priv := g.PrivateFromSeed(p.epochSeedAt(e))
	pub := g.Bytes(g.Public(priv))
	cachePut(ck, &cacheVal{dhePriv: priv, dhePub: pub}, c.fill)
	return priv, pub, nil
}
