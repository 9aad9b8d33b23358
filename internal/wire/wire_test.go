package wire

import (
	"bytes"
	"testing"
	"time"
)

// TestAppendMatchesMarshal pins the append-style fast paths (used by the
// pooled handshake engines) to the builder-based Marshal they replaced:
// for every message type, AppendTo must produce the byte-identical
// framing, and parsing the result must round-trip the fields. The
// campaign golden hash depends on this equivalence.
func TestAppendMatchesMarshal(t *testing.T) {
	ch := &ClientHello{
		Suites:      []uint16{SuiteECDHE, SuiteDHE},
		ServerName:  "example.com",
		OfferTicket: true,
		SessionID:   []byte{1, 2, 3, 4},
		Ticket:      []byte("opaque-ticket-bytes"),
	}
	for i := range ch.Random {
		ch.Random[i] = byte(i)
	}
	if got, want := ch.AppendTo(nil), ch.Marshal().Marshal(); !bytes.Equal(got, want) {
		t.Errorf("ClientHello.AppendTo differs from Marshal:\n  got  %x\n  want %x", got, want)
	}
	// No-extension variant exercises the empty-vector backfill.
	plain := &ClientHello{Suites: []uint16{SuiteDHE}}
	if got, want := plain.AppendTo(nil), plain.Marshal().Marshal(); !bytes.Equal(got, want) {
		t.Errorf("bare ClientHello.AppendTo differs from Marshal:\n  got  %x\n  want %x", got, want)
	}

	sh := &ServerHello{Suite: SuiteECDHE, SessionID: []byte{9, 8, 7}, TicketAck: true}
	for i := range sh.Random {
		sh.Random[i] = byte(0xff - i)
	}
	if got, want := sh.AppendTo(nil), sh.Marshal().Marshal(); !bytes.Equal(got, want) {
		t.Errorf("ServerHello.AppendTo differs from Marshal:\n  got  %x\n  want %x", got, want)
	}

	for _, ske := range []*SKE{
		{Kex: KexECDHE, Public: []byte{4, 1, 2, 3}, Sig: []byte("sig")},
		{Kex: KexDHE, P: []byte{0xfe, 0xed}, G: []byte{2}, Public: []byte{5, 6}, Sig: []byte("sg2")},
	} {
		if got, want := ske.AppendTo(nil), ske.Marshal().Marshal(); !bytes.Equal(got, want) {
			t.Errorf("SKE(%v).AppendTo differs from Marshal:\n  got  %x\n  want %x", ske.Kex, got, want)
		}
	}

	for _, kex := range []Kex{KexECDHE, KexDHE} {
		pub := []byte{10, 20, 30, 40}
		if got, want := AppendCKE(nil, kex, pub), MarshalCKE(kex, pub).Marshal(); !bytes.Equal(got, want) {
			t.Errorf("AppendCKE(%v) differs from MarshalCKE:\n  got  %x\n  want %x", kex, got, want)
		}
	}

	nst := &NewSessionTicket{LifetimeHint: 2 * time.Hour, Ticket: []byte("ticket-blob")}
	if got, want := nst.AppendTo(nil), nst.Marshal().Marshal(); !bytes.Equal(got, want) {
		t.Errorf("NewSessionTicket.AppendTo differs from Marshal:\n  got  %x\n  want %x", got, want)
	}
}

// TestParseIntoReuse pins the pooled-destination parsers: repeated
// ParseClientHelloInto/ParseServerHelloInto calls into the same struct
// must fully reset state from the previous message.
func TestParseIntoReuse(t *testing.T) {
	full := &ClientHello{
		Suites:      []uint16{SuiteECDHE, SuiteDHE},
		ServerName:  "a.example",
		OfferTicket: true,
		SessionID:   []byte{1, 2},
		Ticket:      []byte("tkt"),
	}
	bare := &ClientHello{Suites: []uint16{SuiteDHE}}

	var dst ClientHello
	if err := ParseClientHelloInto(&dst, full.AppendTo(nil)[4:]); err != nil {
		t.Fatal(err)
	}
	if dst.ServerName != "a.example" || !dst.OfferTicket || len(dst.Suites) != 2 {
		t.Fatalf("full parse lost fields: %+v", dst)
	}
	if err := ParseClientHelloInto(&dst, bare.AppendTo(nil)[4:]); err != nil {
		t.Fatal(err)
	}
	if dst.ServerName != "" || dst.OfferTicket || len(dst.Ticket) != 0 || len(dst.SessionID) != 0 {
		t.Fatalf("reused destination kept stale fields: %+v", dst)
	}
	if len(dst.Suites) != 1 || dst.Suites[0] != SuiteDHE {
		t.Fatalf("suites not reset: %v", dst.Suites)
	}

	shFull := &ServerHello{Suite: SuiteECDHE, SessionID: []byte{1}, TicketAck: true}
	shBare := &ServerHello{Suite: SuiteDHE}
	var sh ServerHello
	if err := ParseServerHelloInto(&sh, shFull.AppendTo(nil)[4:]); err != nil {
		t.Fatal(err)
	}
	if err := ParseServerHelloInto(&sh, shBare.AppendTo(nil)[4:]); err != nil {
		t.Fatal(err)
	}
	if sh.TicketAck || len(sh.SessionID) != 0 || sh.Suite != SuiteDHE {
		t.Fatalf("reused ServerHello kept stale fields: %+v", sh)
	}
}
