package keyex_test

import (
	"testing"

	"tlsshortcuts/internal/drbg"
	"tlsshortcuts/internal/pki"
	"tlsshortcuts/internal/simclock"
	"tlsshortcuts/internal/simnet"
	"tlsshortcuts/internal/telemetry"
	"tlsshortcuts/internal/tlsclient"
	"tlsshortcuts/internal/tlsserver"
	"tlsshortcuts/internal/wire"
)

// TestHandshakesConsumeTheirScalars runs kex-only and full handshakes
// against a fresh-value server the way the scanner does. Each completed
// ECDHE handshake takes the scalar its server handed over exactly once,
// for the client's premaster, and its premaster exactly once, for the
// server's; a kex-only probe stops after the ServerKeyExchange and takes
// neither. The hand-off lives in the connection, so nothing a probe
// leaves untaken reaches the next one.
func TestHandshakesConsumeTheirScalars(t *testing.T) {
	reg := telemetry.NewRegistry()
	scalars := reg.Counter("keyex/scalar_exchange_hit")
	premasters := reg.Counter("keyex/premaster_exchange_hit")

	now := simclock.Epoch
	root, err := pki.NewRootCA("scalar root", pki.ECDSAP256, drbg.NewString("keyex-test|root"))
	if err != nil {
		t.Fatal(err)
	}
	leaf, err := root.IssueLeaf([]string{"scalar.example"}, pki.ECDSAP256,
		now.AddDate(-1, 0, 0), now.AddDate(1, 0, 0), drbg.NewString("keyex-test|leaf"))
	if err != nil {
		t.Fatal(err)
	}
	n := simnet.New()
	n.Register("scalar.example", 1, []string{"10.0.0.7"}, &simnet.Endpoint{Config: &tlsserver.Config{
		Clock: simclock.Fixed(now), DefaultCert: leaf, RandSeed: []byte("keyex-test|server"),
	}})
	n.SetTelemetry(reg)
	client := tlsclient.NewCounters(reg)
	for _, tc := range []struct {
		name               string
		suite              uint16
		kexOnly            bool
		scalar, premasters uint64 // hand-offs taken per handshake
	}{
		{"ecdhe/kex-only", wire.SuiteECDHE, true, 0, 0},
		{"ecdhe/full", wire.SuiteECDHE, false, 1, 1},
		{"dhe/kex-only", wire.SuiteDHE, true, 0, 0},
		{"dhe/full", wire.SuiteDHE, false, 0, 1},
	} {
		for i := 0; i < 3; i++ {
			s0, p0 := scalars.Value(), premasters.Value()
			c, err := n.Dial("scalar.example")
			if err != nil {
				t.Fatal(err)
			}
			cap, err := tlsclient.Handshake(c, &tlsclient.Config{
				ServerName: "scalar.example", Suites: []uint16{tc.suite}, Clock: simclock.Fixed(now),
				Rand: drbg.NewString("keyex-test|client", tc.name), ReuseKex: true, KexOnly: tc.kexOnly, Telemetry: client,
			})
			c.Close()
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			if len(cap.ServerKEXValue) == 0 || (cap.Session == nil) != tc.kexOnly {
				t.Fatalf("%s: handshake did not run as configured", tc.name)
			}
			if s, p := scalars.Value()-s0, premasters.Value()-p0; s != tc.scalar || p != tc.premasters {
				t.Errorf("%s #%d: took %d scalars and %d premasters, want %d and %d", tc.name, i, s, p, tc.scalar, tc.premasters)
			}
		}
	}
}
