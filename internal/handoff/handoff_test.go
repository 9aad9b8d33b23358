package handoff_test

import (
	"bytes"
	"crypto/ecdh"
	"crypto/rand"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"math/big"
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

// hits counts the six hand-offs, in a registry that newNet attaches to
// the servers and handshake to the clients.
type hits struct {
	reg    *telemetry.Registry
	client *tlsclient.Counters
	// in the order of values: scalar, exponent, premaster, key
	// schedule, AEAD, SKE nonce
	counters [6]*telemetry.Counter
}

// hitNames names values' entries in failure messages.
const hitNames = "(scalar, exponent, premaster, key schedule, AEAD, SKE nonce)"

func countHits() hits {
	reg := telemetry.NewRegistry()
	h := hits{reg: reg, client: tlsclient.NewCounters(reg)}
	for i, name := range []string{
		"keyex/scalar_exchange_hit", "keyex/exponent_exchange_hit", "keyex/premaster_exchange_hit",
		"handshake/key_schedule_hit", "record/aead_cache_hit", "pki/ske_nonce_hit",
	} {
		h.counters[i] = reg.Counter(name)
	}
	return h
}

func (h hits) values() (v [6]uint64) {
	for i, c := range h.counters {
		v[i] = c.Value()
	}
	return v
}

// newNet registers fresh.example, whose terminator draws fresh key
// exchange values, and reuse.example, which reuses them per day; both
// resume by session ID and by ticket, and count into h. It returns the
// terminators' configs by name.
func newNet(t *testing.T, h hits) (*simnet.Net, *pki.Certificate, map[string]*tlsserver.Config) {
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
	cfgs := make(map[string]*tlsserver.Config)
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
		cfgs[name] = cfg
	}
	n.SetTelemetry(h.reg)
	return n, leaf, cfgs
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
	n, _, _ := newNet(t, h)
	kinds := []struct {
		name string
		cfg  tlsclient.Config
		want [6]uint64 // hand-offs taken, in hitNames order
	}{
		{"ecdhe", tlsclient.Config{Suites: []uint16{wire.SuiteECDHE}, ReuseKex: true, OfferTicket: true}, [6]uint64{1, 0, 1, 1, 2, 1}},
		{"ecdhe/own key", tlsclient.Config{Suites: []uint16{wire.SuiteECDHE}}, [6]uint64{0, 0, 1, 1, 2, 1}},
		{"dhe", tlsclient.Config{Suites: []uint16{wire.SuiteDHE}, ReuseKex: true}, [6]uint64{0, 1, 1, 1, 2, 1}},
		{"dhe/own key", tlsclient.Config{Suites: []uint16{wire.SuiteDHE}, OfferTicket: true}, [6]uint64{0, 0, 1, 1, 2, 1}},
		{"ecdhe/kex-only", tlsclient.Config{Suites: []uint16{wire.SuiteECDHE}, ReuseKex: true, KexOnly: true}, [6]uint64{}},
		{"dhe/kex-only", tlsclient.Config{Suites: []uint16{wire.SuiteDHE}, ReuseKex: true, KexOnly: true}, [6]uint64{}},
	}
	// A resumption takes the server's key block and its AEAD.
	resumed := [6]uint64{0, 0, 0, 1, 2, 0}
	const workers, rounds = 4, 4
	var want [6]uint64
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
			if k.want[4] > 0 { // a completed handshake, resumed after
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
		t.Fatalf("hand-offs taken %s = %v, want %v", hitNames, got, want)
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

// resign makes c a tamperer of a full handshake of key exchange kex:
// it applies editHello to the client's hello, editServerHello to the
// server's and editSKE to the ServerKeyExchange (each may be nil), and
// then signs the ServerKeyExchange again with leaf's key over the
// randoms the client holds, so that its check passes at the client
// whatever was changed, as it would if the server had sent it.
func resign(t *testing.T, c *tamperConn, leaf *pki.Certificate, kex wire.Kex, editHello, editServerHello func(body []byte), editSKE func(*wire.SKE)) {
	var clientRandom, serverRandom []byte
	c.out = func(rec []byte) []byte {
		if body, ok := message(rec, wire.TypeClientHello); ok {
			clientRandom = append([]byte(nil), body[2:34]...)
			if editHello != nil {
				editHello(body)
			}
		}
		return rec
	}
	c.in = func(rec []byte) []byte {
		if body, ok := message(rec, wire.TypeServerHello); ok {
			if editServerHello != nil {
				editServerHello(body)
			}
			serverRandom = append([]byte(nil), body[2:34]...)
			return rec
		}
		body, ok := message(rec, wire.TypeServerKeyExchange)
		if !ok {
			return rec
		}
		var ske wire.SKE
		if err := wire.ParseSKEInto(&ske, kex, body); err != nil {
			t.Error(err)
			return rec
		}
		if editSKE != nil {
			editSKE(&ske)
		}
		digest := sha256.Sum256(ske.AppendSignedParams(nil, clientRandom, serverRandom))
		sig, err := leaf.SignSKE(nil, rand.Reader, digest[:], nil)
		if err != nil {
			t.Error(err)
			return rec
		}
		ske.Sig = sig
		return reframe(ske.AppendTo(nil))
	}
}

// flipRandom changes the first byte of a hello's random.
func flipRandom(body []byte) { body[2] ^= 1 }

// TestTamperedFlightsTakeNoHandoff changes one wire value in flight over
// a linked pipe, and requires the end that receives it to take no
// hand-off standing for the value it expected: a client value swapped
// for another valid point; a leaf swapped for another certificate with
// the ServerKeyExchange kept; a client or a server random changed on a
// resumed connection, and on a full one whose ServerKeyExchange is then
// signed again over the randoms the client holds; and a DHE value,
// modulus or generator changed in a ServerKeyExchange signed again. In
// each the two ends' traffic keys differ, so each handshake must fail,
// as it would between two processes.
func TestTamperedFlightsTakeNoHandoff(t *testing.T) {
	h := countHits()
	n, leaf, _ := newNet(t, h)
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
	dhe := tlsclient.Config{Suites: []uint16{wire.SuiteDHE}, ReuseKex: true}
	session, err := h.handshake(n, "fresh.example", full, nil)
	if err != nil {
		t.Fatal(err)
	}
	resume := tlsclient.Config{Suites: full.Suites, Resume: session.Session, ResumeViaTicket: true, OfferTicket: true}

	for _, tc := range []struct {
		name string
		cfg  tlsclient.Config
		wrap func(*tamperConn)
		// hand-offs taken, in hitNames order: only those whose wire
		// values arrived unchanged
		want [6]uint64
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
		}, [6]uint64{1, 0, 0, 0, 0, 1}, record.AlertBadRecordMAC},
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
		}, [6]uint64{}, 0},
		// The two ends derive their key schedules from different randoms,
		// so the server's reader fails on the client's Finished. The
		// agreement does not depend on the randoms and is taken.
		{"full/client random", full, func(c *tamperConn) {
			resign(t, c, leaf, wire.KexECDHE, flipRandom, nil, nil)
		}, [6]uint64{1, 0, 1, 0, 0, 0}, record.AlertBadRecordMAC},
		{"full/server random", full, func(c *tamperConn) {
			resign(t, c, leaf, wire.KexECDHE, nil, flipRandom, nil)
		}, [6]uint64{1, 0, 1, 0, 0, 0}, record.AlertBadRecordMAC},
		// The server resumes under the random it holds, so its traffic
		// keys differ from the client's, and the client's reader fails
		// on the server's Finished.
		{"resumed/client random", resume, func(c *tamperConn) {
			c.out = func(rec []byte) []byte {
				if body, ok := message(rec, wire.TypeClientHello); ok {
					flipRandom(body)
				}
				return rec
			}
		}, [6]uint64{}, 0},
		{"resumed/server random", resume, func(c *tamperConn) {
			c.in = func(rec []byte) []byte {
				if body, ok := message(rec, wire.TypeServerHello); ok {
					flipRandom(body)
				}
				return rec
			}
		}, [6]uint64{}, 0},
		// The client agrees against a value or group the server did not
		// send, and the server computes its own premaster for the client
		// value it received.
		{"dhe/value", dhe, func(c *tamperConn) {
			resign(t, c, leaf, wire.KexDHE, nil, nil, func(ske *wire.SKE) {
				ske.Public = append([]byte(nil), ske.Public...)
				ske.Public[len(ske.Public)-1] ^= 1
			})
		}, [6]uint64{}, record.AlertBadRecordMAC},
		{"dhe/modulus", dhe, func(c *tamperConn) {
			resign(t, c, leaf, wire.KexDHE, nil, nil, func(ske *wire.SKE) {
				p := new(big.Int).SetBytes(ske.P)
				ske.P = p.Add(p, big.NewInt(2)).Bytes()
			})
		}, [6]uint64{}, record.AlertBadRecordMAC},
		{"dhe/generator", dhe, func(c *tamperConn) {
			resign(t, c, leaf, wire.KexDHE, nil, nil, func(ske *wire.SKE) { ske.G = []byte{3} })
		}, [6]uint64{}, record.AlertBadRecordMAC},
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
			t.Errorf("%s: hand-offs taken %s = %v, want %v", tc.name, hitNames, after, tc.want)
		}
	}
}

// TestUnlinkedTransportsTakeNoHandoff runs full handshakes over a bare
// NewBufferedPipe and a net.Pipe: neither carries a hand-off, so every
// value is computed on both ends.
func TestUnlinkedTransportsTakeNoHandoff(t *testing.T) {
	h := countHits()
	_, leaf, _ := newNet(t, h)
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
	if got := h.values(); got != [6]uint64{} {
		t.Fatalf("hand-offs taken without a link: %v", got)
	}
}

// recorder is a client end that keeps the bytes it writes and reads,
// and passes the hand-off through.
type recorder struct {
	net.Conn
	in, out bytes.Buffer
}

func (c *recorder) Handoff() (*handoff.Link, handoff.End) { return handoff.Of(c.Conn) }

func (c *recorder) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.in.Write(p[:n])
	return n, err
}

func (c *recorder) Write(p []byte) (int, error) {
	c.out.Write(p)
	return c.Conn.Write(p)
}

// TestHandoffsMatchComputation runs each kind of handshake twice with
// the same entropy: over a simnet Line, where the hand-offs are taken,
// and over a bare NewBufferedPipe, where both ends compute every value.
// A full ECDHE and a full DHE handshake and their resumptions by ticket
// and by session ID must give the same master secret both ways, and
// the client must write and read the same bytes, application data
// included, so the key blocks the hand-offs gave are those each end
// derives.
func TestHandoffsMatchComputation(t *testing.T) {
	h := countHits()
	n, _, cfgs := newNet(t, h)
	const name = "reuse.example"
	run := func(label string, cfg tlsclient.Config, linked bool) (*tlsclient.Capture, *recorder, [6]uint64) {
		t.Helper()
		cfg.Rand, cfg.AppData = drbg.NewString("handoff-test|match", label), []byte("GET / HTTP/1.1\r\n\r\n")
		before := h.values()
		var rec *recorder
		var cap *tlsclient.Capture
		var err error
		if linked {
			cap, err = h.handshake(n, name, cfg, func(c net.Conn) net.Conn {
				rec = &recorder{Conn: c}
				return rec
			})
		} else {
			cli, srv := simnet.NewBufferedPipe()
			done := make(chan error, 1)
			go func() {
				defer srv.Close()
				done <- tlsserver.Serve(srv, cfgs[name])
			}()
			rec = &recorder{Conn: cli}
			cfg.ServerName, cfg.Clock, cfg.Telemetry = name, simclock.Fixed(now), h.client
			cap, err = tlsclient.Handshake(rec, &cfg)
			cli.Close()
			err = errors.Join(err, <-done)
		}
		if err != nil {
			t.Fatalf("%s (linked %v): %v", label, linked, err)
		}
		after := h.values()
		for i := range after {
			after[i] -= before[i]
		}
		return cap, rec, after
	}
	compare := func(label string, cfg tlsclient.Config) *tlsclient.Capture {
		t.Helper()
		linked, lrec, lhits := run(label, cfg, true)
		alone, arec, ahits := run(label, cfg, false)
		if lhits[3] != 1 || ahits != [6]uint64{} {
			t.Fatalf("%s: hand-offs %s taken over the Line %v, over the pipe %v: want the key schedule's over the Line and none over the pipe", label, hitNames, lhits, ahits)
		}
		if linked.Session == nil || alone.Session == nil || linked.Session.Master != alone.Session.Master {
			t.Fatalf("%s: master secret over the Line %x, over the pipe %x", label, linked.Session.Master, alone.Session.Master)
		}
		if !bytes.Equal(lrec.out.Bytes(), arec.out.Bytes()) || !bytes.Equal(lrec.in.Bytes(), arec.in.Bytes()) {
			t.Fatalf("%s: the client wrote %d and read %d bytes over the Line, %d and %d over the pipe, and they differ",
				label, lrec.out.Len(), lrec.in.Len(), arec.out.Len(), arec.in.Len())
		}
		return linked
	}
	for _, suite := range []uint16{wire.SuiteECDHE, wire.SuiteDHE} {
		label := fmt.Sprintf("suite %04x", suite)
		full := compare(label+"/full", tlsclient.Config{Suites: []uint16{suite}, ReuseKex: true, OfferTicket: true})
		for _, viaTicket := range []bool{true, false} {
			cap := compare(fmt.Sprintf("%s/resumed, ticket %v", label, viaTicket), tlsclient.Config{
				Suites: []uint16{suite}, Resume: full.Session, ResumeViaTicket: viaTicket, OfferTicket: viaTicket})
			if !cap.Resumed {
				t.Fatalf("%s: the resumption ran a full handshake", label)
			}
		}
	}
}
