package simnet

import (
	"net"
	"testing"

	"tlsshortcuts/internal/drbg"
	"tlsshortcuts/internal/faults"
	"tlsshortcuts/internal/pki"
	"tlsshortcuts/internal/simclock"
	"tlsshortcuts/internal/tlsclient"
	"tlsshortcuts/internal/tlsserver"
)

// TestCloseWaitsForServer pins that Close on a dialed connection returns
// only after its server goroutine has returned and closed its end: on
// the plain path and the Reset-fault path, with the server waiting for a
// ClientHello, for a ClientKeyExchange after a kex-only client hung up,
// or in its application-data loop after a full handshake. The server's
// close is read under the pipe's lock as soon as Close returns, with no
// sleep or polling, so without the wait it would usually still be open.
func TestCloseWaitsForServer(t *testing.T) {
	now := simclock.Epoch
	root, err := pki.NewRootCA("join root", pki.ECDSAP256, drbg.NewString("simnet-test|root"))
	if err != nil {
		t.Fatal(err)
	}
	leaf, err := root.IssueLeaf([]string{"join.example"}, pki.ECDSAP256,
		now.AddDate(-1, 0, 0), now.AddDate(1, 0, 0), drbg.NewString("simnet-test|leaf"))
	if err != nil {
		t.Fatal(err)
	}
	n := New()
	n.Register("join.example", 1, []string{"10.0.0.9"}, &Endpoint{Config: &tlsserver.Config{
		Clock: simclock.Fixed(now), DefaultCert: leaf, RandSeed: []byte("simnet-test|server"),
	}})
	handshake := func(kexOnly bool) func(net.Conn) error {
		return func(c net.Conn) error {
			_, err := tlsclient.Handshake(c, &tlsclient.Config{
				ServerName: "join.example", Clock: simclock.Fixed(now),
				Rand: drbg.NewString("simnet-test|client"), ReuseKex: true, KexOnly: kexOnly,
			})
			return err
		}
	}
	for _, tc := range []struct {
		name   string
		reset  bool
		client func(net.Conn) error // nil: close without a byte sent
	}{
		{"idle", false, nil},
		{"kex-only", false, handshake(true)},
		{"full", false, handshake(false)},
		{"reset/idle", true, nil},
		{"reset/handshake", true, handshake(false)}, // cut off mid-flight
	} {
		t.Run(tc.name, func(t *testing.T) {
			var plan *faults.Plan
			if tc.reset {
				plan = faults.NewPlan(faults.Options{Seed: 1, Reset: 1}, simclock.NewManual(now))
			}
			n.SetFaults(plan)
			c, err := n.DialProbe("join.example", "join|"+tc.name)
			if err != nil {
				t.Fatal(err)
			}
			if tc.client != nil {
				if err := tc.client(c); err != nil && !tc.reset {
					t.Fatalf("handshake: %v", err)
				}
			}
			c.Close()
			if !serverClosed(c) {
				t.Fatal("Close returned while the server end was still open")
			}
			c.Close() // a second Close returns at once
		})
	}
}

// serverClosed reports whether the server has closed its end of the
// dialed connection c: the direction c reads from has seen its writer's
// close.
func serverClosed(c net.Conn) bool {
	rd := c.(*bufConn).rd
	rd.mu.Lock()
	defer rd.mu.Unlock()
	return rd.wEOF
}
