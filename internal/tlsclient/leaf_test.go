package tlsclient

import (
	"runtime"
	"testing"
	"time"

	"tlsshortcuts/internal/pki"
	"tlsshortcuts/internal/population"
	"tlsshortcuts/internal/wire"
)

// TestWorldLeavesCollectable pins that the root store's leaves are
// scoped to their world. The world's root store hands the client the
// entry population recorded for the leaf it issued — its DER is the
// served chain's, with no second parse — and once the world is dropped
// after real handshakes against it, that entry is collected: no package
// state of the client, the server or pki holds it.
func TestWorldLeavesCollectable(t *testing.T) {
	collected := make(chan struct{})
	func() {
		w, err := population.Build(population.Options{ListSize: 50, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		domain := w.TrustedCoreDomains()[0]
		cert := w.Domains[domain].Terms[0].Config.DefaultCert
		leaf, err := w.Roots.Leaf(cert.Chain[0])
		if err != nil || &leaf.Raw[0] != &cert.Chain[0][0] {
			t.Fatalf("root store leaf for %s: %v; want the entry over the issued DER", domain, err)
		}
		for _, suite := range []uint16{wire.SuiteECDHE, wire.SuiteDHE} {
			conn, err := w.Net.Dial(domain)
			if err != nil {
				t.Fatal(err)
			}
			capture, err := Handshake(conn, &Config{ServerName: domain, Suites: []uint16{suite}, Clock: w.Clock, Roots: w.Roots})
			conn.Close()
			if err != nil {
				t.Fatalf("%s suite %#04x: %v", domain, suite, err)
			}
			if !capture.Trusted {
				t.Fatalf("%s: trusted core domain's chain not trusted", domain)
			}
		}
		runtime.SetFinalizer(leaf, func(*pki.Leaf) { close(collected) })
	}()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		runtime.GC()
		select {
		case <-collected:
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Fatal("a dropped world's root-store leaf is still reachable: package state holds it")
}
