package tlsserver

import (
	"bytes"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"tlsshortcuts/internal/drbg"
	"tlsshortcuts/internal/pki"
	"tlsshortcuts/internal/record"
	"tlsshortcuts/internal/session"
	"tlsshortcuts/internal/ticket"
	"tlsshortcuts/internal/wire"
)

// TestSendTicketMatchesSeal checks the NewSessionTicket flight the
// server sends — the message prefix with the ticket sealed in place
// behind it — against the straightforward construction: the framed
// wire.NewSessionTicket around k.Seal under the same entropy, for every
// ticket format and both the default and an explicit lifetime hint.
func TestSendTicketMatchesSeal(t *testing.T) {
	now := time.Date(2016, 3, 1, 12, 0, 0, 0, time.UTC)
	st := &session.State{Version: wire.VersionTLS12, Suite: wire.SuiteECDHE, CreatedAt: now}
	copy(st.MasterSecret[:], "a forty-eight byte master secret for the oracle")

	formats := []ticket.Format{ticket.FormatRFC5077, ticket.FormatMbedTLS, ticket.FormatSChannel}
	for _, f := range formats {
		for _, hint := range []time.Duration{0, 18 * time.Hour} {
			cfg := &Config{Tickets: ticket.NewStatic([]byte("tlsserver-test|"+f.String()), f), TicketHint: hint}
			entropy := func() *drbg.Reader { return drbg.NewString("tlsserver-test|nst", f.String(), hint.String()) }

			k := cfg.Tickets.IssuingKey(now, nil)
			tkt, err := k.Seal(st, entropy())
			if err != nil {
				t.Fatal(err)
			}
			wantHint := hint
			if wantHint == 0 {
				wantHint = 2 * time.Hour
			}
			want := (&wire.NewSessionTicket{LifetimeHint: wantHint, Ticket: tkt}).AppendTo(nil)

			for conn := 0; conn < 3; conn++ { // later connections reuse a pooled buffer
				if got := sentTicket(t, cfg, st, now, entropy()); !bytes.Equal(got, want) {
					t.Fatalf("%s hint %v conn %d: sent\n  %x\nwant\n  %x", f, hint, conn, got, want)
				}
			}
		}
	}
}

// sentTicket runs sendTicket on a pooled connection and returns the
// handshake payload of the record the peer receives.
func sentTicket(t *testing.T, cfg *Config, st *session.State, now time.Time, rnd *drbg.Reader) []byte {
	t.Helper()
	srv, cli := net.Pipe()
	defer srv.Close()
	defer cli.Close()
	hc := hsPool.Get().(*hsConn)
	hc.Reset(srv)
	defer hsPool.Put(hc)
	got := make(chan []byte, 1)
	go func() {
		rec, err := record.NewConn(cli).ReadRecord()
		if err != nil || rec.Type != record.TypeHandshake {
			got <- nil
			return
		}
		got <- append([]byte(nil), rec.Payload...)
	}()
	if err := sendTicket(hc, cfg, st, now, rnd); err != nil {
		t.Fatal(err)
	}
	if err := hc.Record.Flush(); err != nil {
		t.Fatal(err)
	}
	return <-got
}

// TestCertificateMessageOnWire reads the Certificate message a full
// handshake sends off the wire and requires it to equal
// wire.MarshalCertificate(chain).Marshal() for chains of one, two and
// three certificates: first on one connection state that served each
// chain after a longer one, so its message buffer held longer bytes,
// then on concurrent pooled connections.
func TestCertificateMessageOnWire(t *testing.T) {
	const name = "certificate.example"
	rnd := drbg.NewString("tlsserver-test|certificate")
	root, err := pki.NewRootCA("certificate root", pki.ECDSAP256, rnd)
	if err != nil {
		t.Fatal(err)
	}
	other, err := pki.NewRootCA("other root", pki.ECDSAP256, rnd)
	if err != nil {
		t.Fatal(err)
	}
	now := time.Now()
	leaf, err := root.IssueLeaf([]string{name}, pki.ECDSAP256, now.Add(-time.Hour), now.Add(time.Hour), rnd)
	if err != nil {
		t.Fatal(err)
	}
	chain := [][]byte{leaf.Chain[0], other.Cert.Raw, root.Cert.Raw}
	var certs []*pki.Certificate // certs[i] serves a chain of i+1
	for n := 1; n <= len(chain); n++ {
		certs = append(certs, &pki.Certificate{Chain: chain[:n], Key: leaf.Key})
	}
	check := func(crt *pki.Certificate, serve func(net.Conn, *Config)) error {
		got, err := sentCertificate(name, crt, serve)
		if err != nil {
			return err
		}
		if want := wire.MarshalCertificate(crt.Chain).Marshal(); !bytes.Equal(got, want) {
			return fmt.Errorf("chain of %d: sent\n  %x\nwant\n  %x", len(crt.Chain), got, want)
		}
		return nil
	}

	hc := new(hsConn)
	for _, i := range []int{2, 0, 1, 2, 1, 0} {
		err := check(certs[i], func(c net.Conn, cfg *Config) {
			hc.Reset(c)
			serverHandshake(hc, cfg)
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for i := 0; i < 12; i++ {
		wg.Add(1)
		go func(crt *pki.Certificate) {
			defer wg.Done()
			if err := check(crt, func(c net.Conn, cfg *Config) { Serve(c, cfg) }); err != nil {
				t.Error(err)
			}
		}(certs[i%len(certs)])
	}
	wg.Wait()
}

// sentCertificate runs serve on one end of a pipe, serving crt, and
// sends it a ClientHello from the other; it returns the framed
// Certificate message of the server's flight, which must be ServerHello,
// Certificate, ServerKeyExchange and ServerHelloDone, in that order. The
// client hangs up after that flight, so the handshake serve runs fails,
// and only the flight is checked.
func sentCertificate(name string, crt *pki.Certificate, serve func(net.Conn, *Config)) ([]byte, error) {
	srv, cli := net.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer srv.Close()
		serve(srv, &Config{DefaultCert: crt})
	}()
	defer func() { cli.Close(); <-done }()
	rc := record.NewConn(cli)
	hello := (&wire.ClientHello{Suites: []uint16{wire.SuiteECDHE}, ServerName: name}).AppendTo(nil)
	if err := rc.WriteRecord(record.TypeHandshake, hello); err != nil {
		return nil, err
	}
	var flight []byte
	for {
		rec, err := rc.ReadRecord()
		if err != nil {
			return nil, err
		}
		if rec.Type != record.TypeHandshake {
			return nil, fmt.Errorf("record of type %d in the server's flight", rec.Type)
		}
		flight = append(flight, rec.Payload...)
		msgs, err := wire.ParseMsgs(flight)
		if err != nil || len(msgs) == 0 || msgs[len(msgs)-1].Type != wire.TypeServerHelloDone {
			continue // the flight goes on
		}
		var types []uint8
		for _, m := range msgs {
			types = append(types, m.Type)
		}
		if want := []uint8{wire.TypeServerHello, wire.TypeCertificate, wire.TypeServerKeyExchange, wire.TypeServerHelloDone}; !bytes.Equal(types, want) {
			return nil, fmt.Errorf("server flight has messages of types %v, want %v", types, want)
		}
		return msgs[1].Marshal(), nil
	}
}
