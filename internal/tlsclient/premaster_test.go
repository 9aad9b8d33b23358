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
// against tlsserver over simnet connections (ECDHE and DHE, fresh and
// reused server values) and checks the amortized premaster against a
// recomputation that shares no code with the hand-off: crypto/ecdh or
// big.Int.Exp with the fixed client key. The hand-off can hide its own
// bugs — the server takes the premaster the client handed over, so a
// wrong value still completes the handshake — hence the check runs on
// the session's master secret for every connection. The hit counters
// show which amortized path served each row.
func TestPremasterCachesMatchRecomputation(t *testing.T) {
	reg := telemetry.NewRegistry()
	client := NewCounters(reg)

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
	ecdhePriv, _ := keyex.FixedClientECDHE()
	var xb [32]byte
	if _, err := io.ReadFull(drbg.NewString("tlsclient|fixed-dhe"), xb[:]); err != nil {
		t.Fatal(err)
	}
	dheX := new(big.Int).SetBytes(xb[:])
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
		path  string // amortized client path; every connection takes it
	}{
		{"ecdhe/fresh", wire.SuiteECDHE, &tlsserver.Config{}, "keyex/scalar_exchange_hit"},
		{"ecdhe/reuse", wire.SuiteECDHE, &tlsserver.Config{ECDHEPolicy: reuse}, "keyex/scalar_exchange_hit"},
		{"dhe/fresh", wire.SuiteDHE, &tlsserver.Config{}, ""},
		{"dhe/reuse", wire.SuiteDHE, &tlsserver.Config{DHEPolicy: reuse}, ""},
	}
	const conns = 4
	for _, s := range servers {
		exchanged := reg.Counter("keyex/premaster_exchange_hit").Value()
		var amortized uint64
		if s.path != "" {
			amortized = reg.Counter(s.path).Value()
		}
		s.cfg.Clock = simclock.Fixed(now)
		s.cfg.DefaultCert = leaf
		s.cfg.RandSeed = []byte("tlsclient-test|" + s.name)
		n := simnet.New()
		n.Register("oracle.example", 1, []string{"10.0.0.1"}, &simnet.Endpoint{Config: s.cfg})
		n.SetTelemetry(reg)
		var serverPubs [][]byte
		for conn := 0; conn < conns; conn++ {
			label := []string{"tlsclient-test|client", s.name, fmt.Sprint(conn)}
			var clientRandom [32]byte
			if _, err := io.ReadFull(drbg.NewString(label...), clientRandom[:]); err != nil {
				t.Fatal(err)
			}
			cli, err := n.Dial("oracle.example")
			if err != nil {
				t.Fatal(err)
			}
			capture, err := Handshake(cli, &Config{
				ServerName: "oracle.example",
				Suites:     []uint16{s.suite},
				Clock:      simclock.Fixed(now),
				Rand:       drbg.NewString(label...),
				ReuseKex:   true,
				Telemetry:  client,
			})
			cli.Close()
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
		if got := reg.Counter("keyex/premaster_exchange_hit").Value() - exchanged; got != conns {
			t.Fatalf("%s: server took %d of %d premasters from the exchange", s.name, got, conns)
		}
		if s.path != "" {
			if got := reg.Counter(s.path).Value() - amortized; got != conns {
				t.Fatalf("%s: %s counted %d of %d connections", s.name, s.path, got, conns)
			}
		}
	}
}
