package wire

import (
	"bytes"
	"reflect"
	"runtime"
	"testing"
)

// dirtyCH returns a ClientHello destination pre-filled with garbage, the
// worst case a pooled parse destination can present.
func dirtyCH() *ClientHello {
	d := &ClientHello{
		Suites:      []uint16{0xdead, 0xbeef, 0xcafe},
		ServerName:  "stale.example",
		OfferTicket: true,
		SessionID:   []byte("stale-session"),
		Ticket:      []byte("stale-ticket"),
	}
	for i := range d.Random {
		d.Random[i] = 0xaa
	}
	return d
}

// TestParseIntoDirtyDestinations table-fuzzes the pooled-destination
// parsers: every message variant is parsed both into a zero destination
// and into one dirtied with a previous message's fields, and the results
// must match exactly. Connection recycling hands these parsers reused
// structs on every handshake, so a single field that survives a reparse
// would corrupt a measurement.
func TestParseIntoDirtyDestinations(t *testing.T) {
	chVariants := []*ClientHello{
		{Suites: []uint16{SuiteDHE}},
		{Suites: []uint16{SuiteECDHE, SuiteDHE, SuiteRSA}, ServerName: "x.example"},
		{Suites: []uint16{SuiteECDHE}, SessionID: bytes.Repeat([]byte{7}, 32)},
		{Suites: []uint16{SuiteECDHE}, OfferTicket: true},
		{Suites: []uint16{SuiteECDHE}, OfferTicket: true, Ticket: bytes.Repeat([]byte{9}, 96), ServerName: "y.example"},
	}
	for i, v := range chVariants {
		body := v.AppendTo(nil)[4:]
		var clean ClientHello
		if err := ParseClientHelloInto(&clean, body); err != nil {
			t.Fatalf("ch[%d] clean parse: %v", i, err)
		}
		dirty := dirtyCH()
		if err := ParseClientHelloInto(dirty, body); err != nil {
			t.Fatalf("ch[%d] dirty parse: %v", i, err)
		}
		// Suites reuses the dirty destination's backing array by design;
		// compare contents, then the rest of the struct.
		if !reflect.DeepEqual(clean.Suites, dirty.Suites) {
			t.Fatalf("ch[%d] suites differ: clean %v dirty %v", i, clean.Suites, dirty.Suites)
		}
		clean.Suites, dirty.Suites = nil, nil
		if !reflect.DeepEqual(&clean, dirty) {
			t.Fatalf("ch[%d] dirty destination diverged:\n  clean %+v\n  dirty %+v", i, &clean, dirty)
		}
	}

	shVariants := []*ServerHello{
		{Suite: SuiteDHE},
		{Suite: SuiteECDHE, SessionID: bytes.Repeat([]byte{3}, 32)},
		{Suite: SuiteECDHE, TicketAck: true},
	}
	for i, v := range shVariants {
		body := v.AppendTo(nil)[4:]
		var clean ServerHello
		if err := ParseServerHelloInto(&clean, body); err != nil {
			t.Fatalf("sh[%d] clean parse: %v", i, err)
		}
		dirty := &ServerHello{Suite: 0xdead, SessionID: []byte("stale"), TicketAck: true}
		for j := range dirty.Random {
			dirty.Random[j] = 0xbb
		}
		if err := ParseServerHelloInto(dirty, body); err != nil {
			t.Fatalf("sh[%d] dirty parse: %v", i, err)
		}
		if !reflect.DeepEqual(&clean, dirty) {
			t.Fatalf("sh[%d] dirty destination diverged:\n  clean %+v\n  dirty %+v", i, &clean, dirty)
		}
	}

	skeVariants := []*SKE{
		{Kex: KexECDHE, Public: bytes.Repeat([]byte{4}, 65), Sig: []byte("sig")},
		{Kex: KexDHE, P: bytes.Repeat([]byte{0xfe}, 64), G: []byte{2}, Public: bytes.Repeat([]byte{5}, 64), Sig: []byte("sg2")},
	}
	for i, v := range skeVariants {
		body := v.Marshal().Body
		var clean SKE
		if err := ParseSKEInto(&clean, v.Kex, body); err != nil {
			t.Fatalf("ske[%d] clean parse: %v", i, err)
		}
		dirty := &SKE{Kex: KexDHE, P: []byte("staleP"), G: []byte("staleG"), Public: []byte("stalePub"), Sig: []byte("staleSig")}
		if err := ParseSKEInto(dirty, v.Kex, body); err != nil {
			t.Fatalf("ske[%d] dirty parse: %v", i, err)
		}
		if !reflect.DeepEqual(&clean, dirty) {
			t.Fatalf("ske[%d] dirty destination diverged:\n  clean %+v\n  dirty %+v", i, &clean, dirty)
		}
	}

	chain := [][]byte{bytes.Repeat([]byte{1}, 400), bytes.Repeat([]byte{2}, 300)}
	body := MarshalCertificate(chain).Body
	clean, err := ParseCertificateInto(nil, body)
	if err != nil {
		t.Fatal(err)
	}
	dirty := [][]byte{[]byte("stale-cert-a"), []byte("stale-cert-b"), []byte("stale-cert-c")}
	got, err := ParseCertificateInto(dirty[:0], body)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(clean, got) {
		t.Fatalf("certificate dirty destination diverged: clean %d certs, dirty %d certs", len(clean), len(got))
	}
}

// TestParseIntoTruncatedInputs feeds every truncation of valid messages
// to the pooled-destination parsers with dirty destinations: no prefix
// may panic, and a destination that saw a failed parse must still parse
// the next valid message correctly (the pool does not discard structs
// after an error).
func TestParseIntoTruncatedInputs(t *testing.T) {
	ch := &ClientHello{
		Suites:      []uint16{SuiteECDHE, SuiteDHE},
		ServerName:  "t.example",
		OfferTicket: true,
		SessionID:   bytes.Repeat([]byte{7}, 32),
		Ticket:      bytes.Repeat([]byte{9}, 48),
	}
	chBody := ch.AppendTo(nil)[4:]
	dst := dirtyCH()
	for n := 0; n <= len(chBody); n++ {
		_ = ParseClientHelloInto(dst, chBody[:n]) // must not panic
	}
	if err := ParseClientHelloInto(dst, chBody); err != nil {
		t.Fatalf("parse after truncation storm: %v", err)
	}
	if dst.ServerName != "t.example" || !dst.OfferTicket || len(dst.Suites) != 2 {
		t.Fatalf("destination corrupted by failed parses: %+v", dst)
	}

	sh := &ServerHello{Suite: SuiteECDHE, SessionID: bytes.Repeat([]byte{3}, 32), TicketAck: true}
	shBody := sh.AppendTo(nil)[4:]
	var shDst ServerHello
	for n := 0; n <= len(shBody); n++ {
		_ = ParseServerHelloInto(&shDst, shBody[:n])
	}
	if err := ParseServerHelloInto(&shDst, shBody); err != nil {
		t.Fatalf("ServerHello parse after truncation storm: %v", err)
	}
	if !shDst.TicketAck || shDst.Suite != SuiteECDHE {
		t.Fatalf("ServerHello destination corrupted: %+v", shDst)
	}

	ske := &SKE{Kex: KexDHE, P: bytes.Repeat([]byte{0xfe}, 64), G: []byte{2}, Public: bytes.Repeat([]byte{5}, 64), Sig: []byte("sig")}
	skeBody := ske.Marshal().Body
	var skeDst SKE
	for n := 0; n <= len(skeBody); n++ {
		_ = ParseSKEInto(&skeDst, KexDHE, skeBody[:n])
	}
	certBody := MarshalCertificate([][]byte{bytes.Repeat([]byte{1}, 64)}).Body
	scratch := make([][]byte, 0, 4)
	for n := 0; n <= len(certBody); n++ {
		_, _ = ParseCertificateInto(scratch[:0], certBody[:n])
	}
}

// TestFailedParseAllocationBounded feeds each parser a body whose length
// prefix claims far more than the body holds — a 3-byte Certificate
// claiming a 16 MiB chain among them, and hellos whose only flaw is
// inside one extension — and bounds the bytes one failed parse
// allocates: a truncated vector must fail without materializing its
// claimed length.
func TestFailedParseAllocationBounded(t *testing.T) {
	random := make([]byte, 32)
	hello := append([]byte{3, 3}, random...)
	// A ClientHello offering one suite, followed by its extensions block.
	clientHello := func(exts ...byte) []byte {
		b := append(append([]byte(nil), hello...), 0, 0, 2, 0xc0, 0x2b, 1, 0, 0, byte(len(exts)))
		return append(b, exts...)
	}
	cases := []struct {
		name  string
		parse func() error
	}{
		{"certificate list", func() error { _, err := ParseCertificateInto(nil, []byte{0xff, 0xff, 0xff}); return err }},
		{"certificate entry", func() error {
			_, err := ParseCertificateInto(nil, []byte{0, 0, 3, 0xff, 0xff, 0xff})
			return err
		}},
		{"client hello suites", func() error {
			return ParseClientHelloInto(&ClientHello{}, append(append([]byte(nil), hello...), 0, 0xff, 0xfe))
		}},
		{"server hello extensions", func() error {
			return ParseServerHelloInto(&ServerHello{}, append(append([]byte(nil), hello...), 0, 0xc0, 0x2f, 0, 0xff, 0xff))
		}},
		{"client hello sni host name", func() error {
			// The host_name claims 200 bytes; the 11 of "example.com" remain.
			return ParseClientHelloInto(&ClientHello{}, clientHello(append([]byte{0, 0, 0, 16, 0, 14, 0, 0, 200}, "example.com"...)...))
		}},
		{"client hello ticket extension", func() error {
			// The session_ticket extension claims 10 bytes; 5 remain.
			return ParseClientHelloInto(&ClientHello{}, clientHello(0, 35, 0, 10, 1, 2, 3, 4, 5))
		}},
		{"server hello ticket extension", func() error {
			// The session_ticket extension claims 5 bytes; none remain.
			return ParseServerHelloInto(&ServerHello{}, append(append([]byte(nil), hello...), 0, 0xc0, 0x2b, 0, 0, 4, 0, 35, 0, 5))
		}},
		{"ske dhe", func() error { return ParseSKEInto(&SKE{}, KexDHE, []byte{0xff, 0xff}) }},
		{"cke dhe", func() error { _, err := ParseCKE(KexDHE, []byte{0xff, 0xff}); return err }},
		{"new session ticket", func() error { _, err := ParseNewSessionTicket([]byte{0, 0, 0, 1, 0xff, 0xff}); return err }},
	}
	const runs, bound = 50, 1024
	for _, c := range cases {
		if c.parse() == nil {
			t.Fatalf("%s: truncated body parsed without error", c.name)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			_ = c.parse()
		}
		runtime.ReadMemStats(&after)
		if per := (after.TotalAlloc - before.TotalAlloc) / runs; per > bound {
			t.Errorf("%s: one failed parse allocates %d bytes (bound %d)", c.name, per, bound)
		}
	}
}
