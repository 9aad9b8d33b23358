package keyex_test

import (
	"testing"

	"tlsshortcuts/internal/drbg"
	"tlsshortcuts/internal/keyex"
	"tlsshortcuts/internal/pki"
	"tlsshortcuts/internal/simclock"
	"tlsshortcuts/internal/simnet"
	"tlsshortcuts/internal/tlsclient"
	"tlsshortcuts/internal/tlsserver"
	"tlsshortcuts/internal/wire"
)

// TestHandshakesConsumeTheirScalars runs kex-only and full handshakes
// against a fresh-value server the way the scanner does, and requires
// each to leave the volatile scalar map as it found it: a completed
// handshake's premaster lookup consumes the scalar its server
// published, and a kex-only probe, which stops after the
// ServerKeyExchange, discards it. A DHE probe publishes nothing.
func TestHandshakesConsumeTheirScalars(t *testing.T) {
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
	for _, tc := range []struct {
		name    string
		suite   uint16
		kexOnly bool
	}{
		{"ecdhe/kex-only", wire.SuiteECDHE, true},
		{"ecdhe/full", wire.SuiteECDHE, false},
		{"dhe/kex-only", wire.SuiteDHE, true},
	} {
		for i := 0; i < 3; i++ {
			before := keyex.VolatileScalars()
			c, err := n.Dial("scalar.example")
			if err != nil {
				t.Fatal(err)
			}
			cap, err := tlsclient.Handshake(c, &tlsclient.Config{
				ServerName: "scalar.example", Suites: []uint16{tc.suite}, Clock: simclock.Fixed(now),
				Rand: drbg.NewString("keyex-test|client", tc.name), ReuseKex: true, KexOnly: tc.kexOnly,
			})
			c.Close()
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			if len(cap.ServerKEXValue) == 0 || (cap.Session == nil) != tc.kexOnly {
				t.Fatalf("%s: handshake did not run as configured", tc.name)
			}
			if after := keyex.VolatileScalars(); after != before {
				t.Errorf("%s #%d: volatile scalars %d before the handshake, %d after", tc.name, i, before, after)
			}
		}
	}
}
