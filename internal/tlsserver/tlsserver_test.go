package tlsserver

import (
	"bytes"
	"net"
	"testing"
	"time"

	"tlsshortcuts/internal/drbg"
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
