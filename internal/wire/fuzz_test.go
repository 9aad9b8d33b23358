package wire

import (
	"bytes"
	"fmt"
	"reflect"
	"slices"
	"testing"
)

// FuzzParseInto feeds one input to every decoder the TLS engines run on
// a peer's handshake bytes. None may panic, and each pooled-destination
// parser must return into a dirtied destination exactly what it returns
// into a zero one, error included — the property
// TestParseIntoDirtyDestinations checks by table. The committed seeds in
// testdata/fuzz/FuzzParseInto hold one valid body per message, one
// truncation, and three hellos whose only flaw is inside an extension.
func FuzzParseInto(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		var ch ClientHello
		dch := dirtyCH()
		sameErr(t, "ClientHello", ParseClientHelloInto(&ch, body), ParseClientHelloInto(dch, body))
		// Suites reuses the destination's backing array by design, so
		// compare its contents and then the rest of the struct.
		if !slices.Equal(ch.Suites, dch.Suites) {
			t.Fatalf("ClientHello suites: zero destination %v, dirty %v", ch.Suites, dch.Suites)
		}
		ch.Suites, dch.Suites = nil, nil
		if !reflect.DeepEqual(&ch, dch) {
			t.Fatalf("ClientHello: zero destination %+v, dirty %+v", &ch, dch)
		}

		var sh ServerHello
		dsh := &ServerHello{Suite: 0xdead, SessionID: []byte("stale"), TicketAck: true, Random: [32]byte{0xbb}}
		sameErr(t, "ServerHello", ParseServerHelloInto(&sh, body), ParseServerHelloInto(dsh, body))
		if !reflect.DeepEqual(&sh, dsh) {
			t.Fatalf("ServerHello: zero destination %+v, dirty %+v", &sh, dsh)
		}

		chain, err := ParseCertificateInto(nil, body)
		stale := [][]byte{[]byte("stale-cert-a"), []byte("stale-cert-b"), []byte("stale-cert-c")}
		dchain, derr := ParseCertificateInto(stale[:0], body)
		sameErr(t, "Certificate", err, derr)
		if !slices.EqualFunc(chain, dchain, bytes.Equal) {
			t.Fatalf("Certificate: zero destination %d certs, dirty %d certs", len(chain), len(dchain))
		}

		for _, kex := range []Kex{KexECDHE, KexDHE} {
			var ske SKE
			dske := &SKE{Kex: KexDHE, P: []byte("staleP"), G: []byte("staleG"), Public: []byte("stalePub"), Sig: []byte("staleSig")}
			sameErr(t, "SKE "+kex.String(), ParseSKEInto(&ske, kex, body), ParseSKEInto(dske, kex, body))
			if !reflect.DeepEqual(&ske, dske) {
				t.Fatalf("SKE %v: zero destination %+v, dirty %+v", kex, &ske, dske)
			}
			if pub, err := ParseCKE(kex, body); err == nil && len(pub) >= len(body) {
				t.Fatalf("CKE %v: %d-byte public value from a %d-byte body", kex, len(pub), len(body))
			}
		}
	})
}

// sameErr requires two parses of one input to fail (or succeed) alike.
func sameErr(t *testing.T, what string, clean, dirty error) {
	t.Helper()
	if fmt.Sprint(clean) != fmt.Sprint(dirty) {
		t.Fatalf("%s: zero destination returned %v, dirty %v", what, clean, dirty)
	}
}
