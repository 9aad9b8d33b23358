package tlsclient

import (
	"crypto/x509"
	"runtime"
	"testing"
	"time"

	"tlsshortcuts/internal/population"
	"tlsshortcuts/internal/wire"
)

// TestWorldLeavesCollectable pins that parsed leaves are scoped to their
// world. The world's root store hands the client the leaf population
// issued — no second parse — and once the world is dropped after real
// handshakes against it, that leaf is collected: no package state of the
// client, the server or pki holds a certificate.
func TestWorldLeavesCollectable(t *testing.T) {
	collected := make(chan struct{})
	func() {
		w, err := population.Build(population.Options{ListSize: 50, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		domain := w.TrustedCoreDomains()[0]
		cert := w.Domains[domain].Terms[0].Config.DefaultCert
		if leaf, err := w.Roots.Leaf(cert.Chain[0]); err != nil || leaf != cert.Leaf {
			t.Fatalf("root store leaf for %s: %p, %v; want the issuer's parse %p", domain, leaf, err, cert.Leaf)
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
		runtime.SetFinalizer(cert.Leaf, func(*x509.Certificate) { close(collected) })
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
	t.Fatal("a dropped world's leaf certificate is still reachable: package state holds it")
}
