package handoff_test

import (
	"crypto/ecdh"
	"crypto/rand"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"tlsshortcuts/internal/drbg"
	"tlsshortcuts/internal/handoff"
	"tlsshortcuts/internal/keyex"
	"tlsshortcuts/internal/pki"
	"tlsshortcuts/internal/record"
	"tlsshortcuts/internal/session"
	"tlsshortcuts/internal/simclock"
	"tlsshortcuts/internal/simnet"
	"tlsshortcuts/internal/telemetry"
	"tlsshortcuts/internal/ticket"
	"tlsshortcuts/internal/tlsclient"
	"tlsshortcuts/internal/tlsserver"
	"tlsshortcuts/internal/wire"
)

var now = simclock.Epoch

// hits counts the four hand-offs, in a registry that newNet attaches to
// the servers and handshake to the clients.
type hits struct {
	reg                          *telemetry.Registry
	client                       *tlsclient.Counters
	scalar, premaster, aead, ske *telemetry.Counter
}

func countHits() hits {
	reg := telemetry.NewRegistry()
	return hits{
		reg, tlsclient.NewCounters(reg),
		reg.Counter("keyex/scalar_exchange_hit"), reg.Counter("keyex/premaster_exchange_hit"),
		reg.Counter("record/aead_cache_hit"), reg.Counter("pki/ske_nonce_hit"),
	}
}

func (h hits) values() [4]uint64 {
	return [4]uint64{h.scalar.Value(), h.premaster.Value(), h.aead.Value(), h.ske.Value()}
}

// newNet registers fresh.example, whose terminator draws fresh key
// exchange values, and reuse.example, which reuses them per day; both
// resume by session ID and by ticket, and count into h.
func newNet(t *testing.T, h hits) (*simnet.Net, *pki.Certificate) {
	t.Helper()
	root, err := pki.NewRootCA("handoff root", pki.ECDSAP256, drbg.NewString("handoff-test|root"))
	if err != nil {
		t.Fatal(err)
	}
	leaf, err := root.IssueLeaf([]string{"fresh.example", "reuse.example"}, pki.ECDSAP256,
		now.AddDate(-1, 0, 0), now.AddDate(1, 0, 0), drbg.NewString("handoff-test|leaf"))
	if err != nil {
		t.Fatal(err)
	}
	n := simnet.New()
	for i, name := range []string{"fresh.example", "reuse.example"} {
		cfg := &tlsserver.Config{
			Clock: simclock.Fixed(now), DefaultCert: leaf, RandSeed: []byte("handoff-test|" + name),
			Cache:   session.NewCache(time.Hour),
			Tickets: ticket.NewStatic([]byte("handoff-test|stek|"+name), ticket.FormatRFC5077),
		}
		if name == "reuse.example" {
			p := &keyex.Policy{Mode: keyex.Reuse, Period: 24 * time.Hour, Base: now.Add(-time.Hour), Seed: []byte("handoff-test|reuse")}
			cfg.ECDHEPolicy, cfg.DHEPolicy = p, p
		}
		n.Register(name, i+1, []string{fmt.Sprintf("10.0.0.%d", i+1)}, &simnet.Endpoint{Config: cfg})
	}
	n.SetTelemetry(h.reg)
	return n, leaf
}

// handshake dials name and runs one handshake counting into h; wrap,
// when set, wraps the client's end of the connection.
func (h hits) handshake(n *simnet.Net, name string, cfg tlsclient.Config, wrap func(net.Conn) net.Conn) (*tlsclient.Capture, error) {
	c, err := n.Dial(name)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	if wrap != nil {
		c = wrap(c)
	}
	cfg.ServerName, cfg.Clock, cfg.Telemetry = name, simclock.Fixed(now), h.client
	return tlsclient.Handshake(c, &cfg)
}

// TestConcurrentHandshakesTakeTheirHandoffs runs full ECDHE and DHE,
// kex-only and resumed handshakes over one simnet.Net from several
// goroutines and requires every hand-off each kind stands for to be
// taken, and no other. Each value is published before the flight that
// carries its public form; under the race detector this test checks
// that the pipe's locking orders every publication before its reader.
func TestConcurrentHandshakesTakeTheirHandoffs(t *testing.T) {
	h := countHits()
	n, _ := newNet(t, h)
	kinds := []struct {
		name string
		cfg  tlsclient.Config
		// hand-offs taken: scalar, premaster, AEAD, SKE nonce
		want [4]uint64
	}{
		{"ecdhe", tlsclient.Config{Suites: []uint16{wire.SuiteECDHE}, ReuseKex: true, OfferTicket: true}, [4]uint64{1, 1, 2, 1}},
		{"ecdhe/own key", tlsclient.Config{Suites: []uint16{wire.SuiteECDHE}}, [4]uint64{0, 1, 2, 1}},
		{"dhe", tlsclient.Config{Suites: []uint16{wire.SuiteDHE}, ReuseKex: true}, [4]uint64{0, 1, 2, 1}},
		{"ecdhe/kex-only", tlsclient.Config{Suites: []uint16{wire.SuiteECDHE}, ReuseKex: true, KexOnly: true}, [4]uint64{}},
		{"dhe/kex-only", tlsclient.Config{Suites: []uint16{wire.SuiteDHE}, ReuseKex: true, KexOnly: true}, [4]uint64{}},
	}
	resumed := [4]uint64{0, 0, 2, 0}
	const workers, rounds = 4, 4
	var want [4]uint64
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				name := []string{"fresh.example", "reuse.example"}[(w+r)%2]
				for _, k := range kinds {
					cfg := k.cfg
					cfg.Rand = drbg.NewString("handoff-test|client", k.name, fmt.Sprint(w, r))
					cap, err := h.handshake(n, name, cfg, nil)
					if err != nil {
						errs <- fmt.Errorf("%s %s: %w", name, k.name, err)
						return
					}
					if cap.Session == nil {
						continue
					}
					// Resume the session: by ticket when one was issued.
					cfg = tlsclient.Config{Suites: k.cfg.Suites, Resume: cap.Session, ResumeViaTicket: cap.TicketIssued,
						OfferTicket: cap.TicketIssued, Rand: drbg.NewString("handoff-test|resume", k.name, fmt.Sprint(w, r))}
					if cap, err = h.handshake(n, name, cfg, nil); err != nil || !cap.Resumed {
						errs <- fmt.Errorf("%s %s resumed = %v: %v", name, k.name, cap != nil && cap.Resumed, err)
						return
					}
				}
			}
		}(w)
	}
	for _, k := range kinds {
		for i := range want {
			want[i] += workers * rounds * k.want[i]
			if k.want[2] > 0 {
				want[i] += workers * rounds * resumed[i]
			}
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := h.values(); got != want {
		t.Fatalf("hand-offs taken (scalar, premaster, AEAD, SKE nonce) = %v, want %v", got, want)
	}
}

// tamperConn is the client's end of a dialed connection with whole
// records rewritten in flight: out rewrites the client's, in the
// server's. It passes the hand-off through, so the only thing between
// the two ends and a hand-off is the equality each one checks.
type tamperConn struct {
	net.Conn
	in, out func(rec []byte) []byte
	pending []byte // rewritten server bytes not yet read
}

func (c *tamperConn) Handoff() (*handoff.Link, handoff.End) { return handoff.Of(c.Conn) }

func (c *tamperConn) Write(p []byte) (int, error) {
	if c.out == nil {
		return c.Conn.Write(p)
	}
	var b []byte
	for rest := p; len(rest) >= 5; {
		n := 5 + (int(rest[3])<<8 | int(rest[4]))
		b = append(b, c.out(append([]byte(nil), rest[:n]...))...)
		rest = rest[n:]
	}
	if _, err := c.Conn.Write(b); err != nil {
		return 0, err
	}
	return len(p), nil
}

func (c *tamperConn) Read(p []byte) (int, error) {
	if c.in == nil {
		return c.Conn.Read(p)
	}
	if len(c.pending) == 0 {
		var hdr [5]byte
		if _, err := io.ReadFull(c.Conn, hdr[:]); err != nil {
			return 0, err
		}
		rec := append(hdr[:], make([]byte, int(hdr[3])<<8|int(hdr[4]))...)
		if _, err := io.ReadFull(c.Conn, rec[5:]); err != nil {
			return 0, err
		}
		c.pending = c.in(rec)
	}
	n := copy(p, c.pending)
	c.pending = c.pending[n:]
	return n, nil
}

// message returns the body of rec when it is a plaintext record holding
// one handshake message of type typ.
func message(rec []byte, typ uint8) ([]byte, bool) {
	if len(rec) < 9 || rec[0] != record.TypeHandshake || rec[5] != typ {
		return nil, false
	}
	return rec[9:], true
}

// reframe wraps a framed handshake message in a plaintext record.
func reframe(msg []byte) []byte {
	return append([]byte{record.TypeHandshake, 3, 3, byte(len(msg) >> 8), byte(len(msg))}, msg...)
}

// TestTamperedFlightsTakeNoHandoff changes one wire value in flight over
// a linked pipe, and requires the end that receives it to take no
// hand-off standing for the value it expected: a client value swapped
// for another valid point, a leaf swapped for another certificate with
// the ServerKeyExchange kept, and a client random changed on a resumed
// connection, so that the two ends' traffic keys differ. Each handshake
// must fail, as it would between two processes.
func TestTamperedFlightsTakeNoHandoff(t *testing.T) {
	h := countHits()
	n, _ := newNet(t, h)
	other, err := ecdh.P256().GenerateKey(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	otherRoot, err := pki.NewRootCA("other root", pki.ECDSAP256, drbg.NewString("handoff-test|other root"))
	if err != nil {
		t.Fatal(err)
	}
	otherLeaf, err := otherRoot.IssueLeaf([]string{"fresh.example"}, pki.ECDSAP256,
		now.AddDate(-1, 0, 0), now.AddDate(1, 0, 0), drbg.NewString("handoff-test|other leaf"))
	if err != nil {
		t.Fatal(err)
	}
	full := tlsclient.Config{Suites: []uint16{wire.SuiteECDHE}, ReuseKex: true, OfferTicket: true}
	session, err := h.handshake(n, "fresh.example", full, nil)
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name string
		cfg  tlsclient.Config
		wrap func(*tamperConn)
		// hand-offs taken (scalar, premaster, AEAD, SKE nonce): only those
		// whose wire values arrived unchanged
		want [4]uint64
		// the failure: the server's alert, or 0 for a client-side one
		alert uint8
	}{
		// The server computes the agreement for the point it received,
		// so the two ends' keys differ and its reader fails on the
		// client's Finished.
		{"client value", full, func(c *tamperConn) {
			c.out = func(rec []byte) []byte {
				if body, ok := message(rec, wire.TypeClientKeyExchange); ok {
					copy(body[1:], other.PublicKey().Bytes())
				}
				return rec
			}
		}, [4]uint64{1, 0, 0, 1}, record.AlertBadRecordMAC},
		// The ServerKeyExchange goes to ecdsa.VerifyASN1 under the other
		// leaf's key, which did not sign it.
		{"leaf", full, func(c *tamperConn) {
			c.in = func(rec []byte) []byte {
				body, ok := message(rec, wire.TypeCertificate)
				if !ok {
					return rec
				}
				chain, err := wire.ParseCertificateInto(nil, body)
				if err != nil {
					t.Error(err)
					return rec
				}
				chain[0] = otherLeaf.Chain[0]
				return reframe(wire.MarshalCertificate(chain).Marshal())
			}
		}, [4]uint64{}, 0},
		// The server resumes under the random it received, so its
		// traffic keys differ from the client's, and the client's reader
		// fails on the server's Finished.
		{"client random", tlsclient.Config{Suites: full.Suites, Resume: session.Session, ResumeViaTicket: true, OfferTicket: true}, func(c *tamperConn) {
			c.out = func(rec []byte) []byte {
				if body, ok := message(rec, wire.TypeClientHello); ok {
					body[2] ^= 1 // the first byte of the random
				}
				return rec
			}
		}, [4]uint64{}, 0},
	} {
		before := h.values()
		_, err := h.handshake(n, "fresh.example", tc.cfg, func(c net.Conn) net.Conn {
			tamper := &tamperConn{Conn: c}
			tc.wrap(tamper)
			return tamper
		})
		var ae *record.AlertError
		if err == nil || errors.As(err, &ae) != (tc.alert != 0) || tc.alert != 0 && ae.Code != tc.alert {
			t.Errorf("%s: the tampered handshake ended with %v, want a failure with server alert %d", tc.name, err, tc.alert)
		}
		after := h.values()
		for i := range after {
			after[i] -= before[i]
		}
		if after != tc.want {
			t.Errorf("%s: hand-offs taken (scalar, premaster, AEAD, SKE nonce) = %v, want %v", tc.name, after, tc.want)
		}
	}
}

// TestUnlinkedTransportsTakeNoHandoff runs full handshakes over a bare
// NewBufferedPipe and a net.Pipe: neither carries a hand-off, so every
// value is computed on both ends.
func TestUnlinkedTransportsTakeNoHandoff(t *testing.T) {
	h := countHits()
	_, leaf := newNet(t, h)
	for name, pipe := range map[string]func() (net.Conn, net.Conn){"NewBufferedPipe": simnet.NewBufferedPipe, "net.Pipe": net.Pipe} {
		cli, srv := pipe()
		done := make(chan error, 1)
		go func() {
			defer srv.Close()
			done <- tlsserver.Serve(srv, &tlsserver.Config{Clock: simclock.Fixed(now), DefaultCert: leaf, Telemetry: tlsserver.NewCounters(h.reg)})
		}()
		_, err := tlsclient.Handshake(cli, &tlsclient.Config{ServerName: "fresh.example", Clock: simclock.Fixed(now), ReuseKex: true, Telemetry: h.client})
		cli.Close()
		if err := errors.Join(err, <-done); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	if got := h.values(); got != [4]uint64{} {
		t.Fatalf("hand-offs taken without a link: %v", got)
	}
}
