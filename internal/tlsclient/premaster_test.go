package tlsclient

import (
	"bytes"
	"crypto/ecdh"
	"fmt"
	"io"
	"math/big"
	"testing"
	"time"

	"tlsshortcuts/internal/drbg"
	"tlsshortcuts/internal/ffdh"
	"tlsshortcuts/internal/keyex"
	"tlsshortcuts/internal/pki"
	"tlsshortcuts/internal/prf"
	"tlsshortcuts/internal/simclock"
	"tlsshortcuts/internal/simnet"
	"tlsshortcuts/internal/telemetry"
	"tlsshortcuts/internal/tlsserver"
	"tlsshortcuts/internal/wire"
)

// TestPremasterCachesMatchRecomputation runs real fixed-key handshakes
// against tlsserver (ECDHE and DHE, fresh and reused server values) and
// checks the amortized premaster against a recomputation that shares no
// code with the caches: crypto/ecdh or big.Int.Exp with the fixed client
// key. The caches can hide their own bugs — the server consumes the
// premaster the client published, so a wrong value still completes the
// handshake — hence the check runs on the session's master secret for
// every connection, and on every client premaster-cache entry afterwards.
// The wall/ hit counters show which amortized path served each row.
func TestPremasterCachesMatchRecomputation(t *testing.T) {
	reg := telemetry.NewRegistry()
	defer telemetry.SetGlobal(reg)()

	now := time.Date(2016, 3, 1, 12, 0, 0, 0, time.UTC)
	root, err := pki.NewRootCA("oracle root", pki.ECDSAP256, drbg.NewString("tlsclient-test|root"))
	if err != nil {
		t.Fatal(err)
	}
	leaf, err := root.IssueLeaf([]string{"oracle.example"}, pki.ECDSAP256,
		now.AddDate(-1, 0, 0), now.AddDate(1, 0, 0), drbg.NewString("tlsclient-test|leaf"))
	if err != nil {
		t.Fatal(err)
	}
	reuse := &keyex.Policy{Mode: keyex.Reuse, Period: 24 * time.Hour, Base: now.Add(-time.Hour), Seed: []byte("tlsclient-test|reuse")}
	group := ffdh.TestGroup512()

	// The fixed client key, rebuilt from its definitions.
	ecdhePriv, ecdhePub := keyex.FixedClientECDHE()
	var xb [32]byte
	if _, err := io.ReadFull(drbg.NewString("tlsclient|fixed-dhe"), xb[:]); err != nil {
		t.Fatal(err)
	}
	dheX := new(big.Int).SetBytes(xb[:])
	dhePub := new(big.Int).Exp(group.G, dheX, group.P).Bytes()
	premasterOracle := func(suite uint16, serverPub []byte) []byte {
		if suite == wire.SuiteECDHE {
			peer, err := ecdh.P256().NewPublicKey(serverPub)
			if err != nil {
				t.Fatalf("server ECDHE value: %v", err)
			}
			pm, err := ecdhePriv.ECDH(peer)
			if err != nil {
				t.Fatal(err)
			}
			return pm
		}
		return new(big.Int).Exp(new(big.Int).SetBytes(serverPub), dheX, group.P).Bytes()
	}

	servers := []struct {
		name  string
		suite uint16
		cfg   *tlsserver.Config
		path  string // amortized client path; at least every connection but the first takes it
	}{
		{"ecdhe/fresh", wire.SuiteECDHE, &tlsserver.Config{}, "wall/keyex/scalar_exchange_hit"},
		{"ecdhe/reuse", wire.SuiteECDHE, &tlsserver.Config{ECDHEPolicy: reuse}, "wall/keyex/scalar_exchange_hit"},
		{"dhe/fresh", wire.SuiteDHE, &tlsserver.Config{}, ""},
		{"dhe/reuse", wire.SuiteDHE, &tlsserver.Config{DHEPolicy: reuse}, "wall/tlsclient/premaster_hit"},
	}
	const conns = 4
	hits := 0
	for _, s := range servers {
		exchanged := reg.Counter("wall/keyex/premaster_exchange_hit").Value()
		var amortized uint64
		if s.path != "" {
			amortized = reg.Counter(s.path).Value()
		}
		s.cfg.Clock = simclock.Fixed(now)
		s.cfg.DefaultCert = leaf
		s.cfg.RandSeed = []byte("tlsclient-test|" + s.name)
		var serverPubs [][]byte
		for conn := 0; conn < conns; conn++ {
			label := []string{"tlsclient-test|client", s.name, fmt.Sprint(conn)}
			var clientRandom [32]byte
			if _, err := io.ReadFull(drbg.NewString(label...), clientRandom[:]); err != nil {
				t.Fatal(err)
			}
			cli, srv := simnet.NewBufferedPipe()
			done := make(chan struct{})
			go func() {
				defer close(done)
				defer srv.Close()
				_ = tlsserver.Serve(srv, s.cfg)
			}()
			capture, err := Handshake(cli, &Config{
				ServerName: "oracle.example",
				Suites:     []uint16{s.suite},
				Clock:      simclock.Fixed(now),
				Rand:       drbg.NewString(label...),
				ReuseKex:   true,
			})
			cli.Close()
			<-done
			if err != nil {
				t.Fatalf("%s conn %d: %v", s.name, conn, err)
			}
			pub := append([]byte(nil), capture.ServerKEXValue...)
			serverPubs = append(serverPubs, pub)
			master := prf.MasterSecret(premasterOracle(s.suite, pub), clientRandom[:], capture.ServerRandom)
			if !bytes.Equal(capture.Session.Master[:], master) {
				t.Fatalf("%s conn %d: session master differs from the recomputed agreement", s.name, conn)
			}
		}
		if reused := bytes.Equal(serverPubs[0], serverPubs[1]); reused != (s.cfg.ECDHEPolicy != nil || s.cfg.DHEPolicy != nil) {
			t.Fatalf("%s: server value reused across connections = %v", s.name, reused)
		}
		if got := reg.Counter("wall/keyex/premaster_exchange_hit").Value() - exchanged; got != conns {
			t.Fatalf("%s: server took %d of %d premasters from the exchange", s.name, got, conns)
		}
		if s.path != "" {
			if got := reg.Counter(s.path).Value() - amortized; got < conns-1 {
				t.Fatalf("%s: %s counted %d of %d connections", s.name, s.path, got, conns)
			}
		}

		// Every client cache entry the handshakes left must hold the
		// recomputed premaster and the fixed client public value. In
		// process, fixed-key ECDHE agreements come from the server's
		// published scalar, so the ECDHE map usually stays empty; DHE
		// servers fill it.
		for _, pub := range serverPubs {
			var pm, cpub, wantPub []byte
			if s.suite == wire.SuiteECDHE {
				pm, cpub = clientPremasterECDHE(pub)
				wantPub = ecdhePub
			} else {
				p, g := group.ParamBytes()
				pm, cpub = clientPremasterDHE(p, g, pub)
				wantPub = dhePub
			}
			if pm == nil {
				continue
			}
			hits++
			if want := premasterOracle(s.suite, pub); !bytes.Equal(pm, want) {
				t.Fatalf("%s: cached premaster %x, recomputed %x", s.name, pm, want)
			}
			if !bytes.Equal(cpub, wantPub) {
				t.Fatalf("%s: cached client public %x, fixed key's is %x", s.name, cpub, wantPub)
			}
		}
	}
	if hits == 0 {
		t.Fatal("no handshake left a client premaster-cache entry to check")
	}
}
