package keyex

import (
	"bytes"
	"crypto/ecdh"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/big"
	"testing"
	"time"

	"tlsshortcuts/internal/drbg"
	"tlsshortcuts/internal/ffdh"
	"tlsshortcuts/internal/handoff"
	"tlsshortcuts/internal/telemetry"
)

// The shortcuts in this package can hide their own bugs: a client hands
// over a premaster and the server takes it, so a wrong value still
// completes the handshake on both ends. These tests check every
// shortcut answer against a computation that shares no code with it.

var oracleBase = time.Date(2016, 3, 1, 0, 0, 0, 0, time.UTC)

// fixedAgreement is the fixed client key's crypto/ecdh agreement with pub.
func fixedAgreement(t *testing.T, pub []byte) []byte {
	t.Helper()
	priv, _ := FixedClientECDHE()
	peer, err := ecdh.P256().NewPublicKey(pub)
	if err != nil {
		t.Fatalf("server public: %v", err)
	}
	pm, err := priv.ECDH(peer)
	if err != nil {
		t.Fatalf("ECDH: %v", err)
	}
	return pm
}

// TestScalarExchangeMatchesECDH checks the fixed client's scalar
// premaster against crypto/ecdh: FixedClientPremaster for every server
// key a connection's hand-off gives up, and ClientPremasterFromScalar
// for reuse epochs (answered on every lookup). A hand-off gives up its
// key only for the value the server published, and fresh keys are
// remembered nowhere else.
func TestScalarExchangeMatchesECDH(t *testing.T) {
	fresh := &Policy{Mode: Fresh}
	rnd := drbg.NewString("keyex-test|fresh")
	var prev []byte
	for i := 0; i < 256; i++ {
		k, pub, err := ECDHEKeyPub(fresh, oracleBase, rnd)
		if err != nil {
			t.Fatal(err)
		}
		link := new(handoff.Link)
		link.SetServerValue(pub, k)
		got := FixedClientPremaster(link.ServerKey(pub))
		if want := fixedAgreement(t, pub); !bytes.Equal(got, want) {
			t.Fatalf("fresh key %d: scalar exchange gave %x, ECDH gives %x", i, got, want)
		}
		if prev != nil && link.ServerKey(prev) != nil {
			t.Fatalf("fresh key %d: the hand-off gave up its key for another server value", i)
		}
		if pm := ClientPremasterFromScalar(pub); pm != nil {
			t.Fatalf("fresh key %d: a fresh scalar outlived its connection", i)
		}
		prev = pub
	}

	p := &Policy{Mode: Reuse, Period: time.Hour, Base: oracleBase, Seed: []byte("keyex-test|scalar-reuse")}
	for e := 0; e < 4; e++ {
		now := oracleBase.Add(time.Duration(e)*p.Period + time.Minute)
		k, pub, err := ECDHEKeyPub(p, now, nil)
		if err != nil {
			t.Fatal(err)
		}
		want := fixedAgreement(t, pub)
		for lookup := 0; lookup < 3; lookup++ {
			if got := ClientPremasterFromScalar(pub); !bytes.Equal(got, want) {
				t.Fatalf("epoch %d lookup %d: scalar exchange gave %x, ECDH gives %x", e, lookup, got, want)
			}
		}
		if got := FixedClientPremaster(k); !bytes.Equal(got, want) {
			t.Fatalf("epoch %d: premaster from the epoch key is %x, ECDH gives %x", e, got, want)
		}
	}

	if pm := ClientPremasterFromScalar(bytes.Repeat([]byte{4}, 65)); pm != nil {
		t.Fatal("scalar exchange answered for a point no server published")
	}
}

// TestPremasterExchangeConsumedOnce checks that a premaster handed over
// on a connection comes back byte-identical for its own pair of public
// values, and for no other pair and on no other connection.
func TestPremasterExchangeConsumedOnce(t *testing.T) {
	links := make([]*handoff.Link, 64)
	for i := range links {
		spub := []byte(fmt.Sprintf("server-%d", i%8)) // servers repeat, as under Reuse
		cpub := []byte(fmt.Sprintf("client-%d", i))
		pm := []byte(fmt.Sprintf("premaster-%d", i))
		link := new(handoff.Link)
		links[i] = link
		link.SetServerValue(spub, nil)
		link.SetPremaster(spub, cpub, pm)
		if got := link.Premaster(cpub); !bytes.Equal(got, pm) {
			t.Fatalf("connection %d: the server took %q, the client handed over %q", i, got, pm)
		}
		if got := link.Premaster([]byte("client-none")); got != nil {
			t.Fatalf("connection %d: took %q for a client value nobody sent", i, got)
		}
		if i > 0 {
			if got := links[i-1].Premaster(cpub); got != nil {
				t.Fatalf("connection %d: another connection gave up %q", i, got)
			}
		}

		// A client that received another server value hands nothing over.
		other := new(handoff.Link)
		other.SetServerValue(spub, nil)
		other.SetPremaster([]byte("server-none"), cpub, pm)
		if got := other.Premaster(cpub); got != nil {
			t.Fatalf("connection %d: took %q agreed for a server value the server never sent", i, got)
		}
	}
}

// epochSeedOracle recomputes a policy's epoch seed from its definition:
// SHA-256 over the policy seed and the big-endian epoch counter.
func epochSeedOracle(seed []byte, epoch uint64) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], epoch)
	h := sha256.Sum256(append(append([]byte(nil), seed...), b[:]...))
	return h[:]
}

// ecdheOracle derives the epoch's P-256 key: the first SHA-256 candidate
// over ("ecdhe-priv", seed, counter) that is a valid scalar.
func ecdheOracle(t *testing.T, seed []byte) *ecdh.PrivateKey {
	t.Helper()
	for i := 0; i < 64; i++ {
		h := sha256.Sum256(append(append([]byte("ecdhe-priv"), seed...), byte(i)))
		if k, err := ecdh.P256().NewPrivateKey(h[:]); err == nil {
			return k
		}
	}
	t.Fatal("no valid P-256 candidate")
	return nil
}

// TestReuseCacheHitsMatchDerivation checks every reuse-mode answer —
// the epoch's first derivation and the cache hits after it — against a
// derivation done from the epoch seed alone.
func TestReuseCacheHitsMatchDerivation(t *testing.T) {
	reg := telemetry.NewRegistry()
	c := NewCounters(reg)
	hits := reg.Counter("wall/keyex/cache_hit")

	p := &Policy{Mode: Reuse, Period: 6 * time.Hour, Base: oracleBase, Seed: []byte("keyex-test|epochs")}
	g := ffdh.TestGroup512()
	for e := uint64(0); e < 4; e++ {
		now := oracleBase.Add(time.Duration(e)*p.Period + time.Hour)
		seed := epochSeedOracle(p.Seed, e)
		wantKey := ecdheOracle(t, seed)
		wantX := g.PrivateFromSeed(seed)
		wantY := new(big.Int).Exp(g.G, wantX, g.P).FillBytes(make([]byte, (g.P.BitLen()+7)/8))

		var before uint64
		for call := 0; call < 3; call++ {
			if call == 1 {
				// The first call derived the epoch's values, or found them
				// cached by an earlier run in this process; the rest must hit.
				before = hits.Value()
			}
			k, pub, err := c.ECDHEKeyPub(p, now, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(k.Bytes(), wantKey.Bytes()) || !bytes.Equal(pub, wantKey.PublicKey().Bytes()) {
				t.Fatalf("epoch %d call %d: ECDHE key differs from the epoch-seed derivation", e, call)
			}
			x, y, err := c.DHEKey(g, p, now, nil)
			if err != nil {
				t.Fatal(err)
			}
			if x.Cmp(wantX) != 0 || !bytes.Equal(y, wantY) {
				t.Fatalf("epoch %d call %d: DHE key differs from the epoch-seed derivation", e, call)
			}
		}
		// Two kinds × two repeat calls: four answers came from the cache.
		if got := hits.Value() - before; got != 4 {
			t.Fatalf("epoch %d: %d cache hits, want 4", e, got)
		}
	}
}
