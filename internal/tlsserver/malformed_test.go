package tlsserver_test

import (
	"bytes"
	"crypto/ecdh"
	"errors"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"tlsshortcuts/internal/drbg"
	"tlsshortcuts/internal/pki"
	"tlsshortcuts/internal/record"
	"tlsshortcuts/internal/simnet"
	"tlsshortcuts/internal/tlsclient"
	"tlsshortcuts/internal/tlsserver"
	"tlsshortcuts/internal/wire"
)

// records frames each payload as one plaintext record of type typ.
func records(typ uint8, payloads ...[]byte) []byte {
	var out []byte
	for _, p := range payloads {
		out = append(out, typ, 3, 3, byte(len(p)>>8), byte(len(p)))
		out = append(out, p...)
	}
	return out
}

// tapConn is the client end of a test connection: it keeps every byte
// the server sent, and passes each write through tamper when set.
type tapConn struct {
	net.Conn
	read   bytes.Buffer
	tamper func([]byte) []byte
}

func (c *tapConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.read.Write(p[:n])
	return n, err
}

func (c *tapConn) Write(p []byte) (int, error) {
	if c.tamper != nil {
		if _, err := c.Conn.Write(c.tamper(append([]byte(nil), p...))); err != nil {
			return 0, err
		}
		return len(p), nil
	}
	return c.Conn.Write(p)
}

// alerts returns the description of every alert record in a plaintext
// record stream.
func alerts(stream []byte) []uint8 {
	var out []uint8
	for len(stream) >= 5 {
		n := int(stream[3])<<8 | int(stream[4])
		if len(stream) < 5+n {
			break
		}
		if stream[0] == record.TypeAlert && n == 2 {
			out = append(out, stream[6])
		}
		stream = stream[5+n:]
	}
	return out
}

// TestServeMalformedClientFlights drives Serve over a buffered simnet
// pipe with client flights a hostile or broken peer could send. Each row
// pins the error Serve returns, the alerts the server sends (the one a
// Go 1.24 crypto/tls TLS 1.2 server sends for the same flight), and that
// Serve returns instead of waiting on the peer.
func TestServeMalformedClientFlights(t *testing.T) {
	const name = "malformed.example"
	rnd := drbg.NewString("tlsserver-test|malformed")
	root, err := pki.NewRootCA("malformed root", pki.ECDSAP256, rnd)
	if err != nil {
		t.Fatal(err)
	}
	now := time.Now()
	leaf, err := root.IssueLeaf([]string{name}, pki.ECDSAP256, now.Add(-time.Hour), now.Add(time.Hour), rnd)
	if err != nil {
		t.Fatal(err)
	}
	cfg := &tlsserver.Config{DefaultCert: leaf}

	hello := (&wire.ClientHello{Suites: []uint16{wire.SuiteECDHE}, ServerName: name}).AppendTo(nil)
	truncated := (&wire.Msg{Type: wire.TypeClientHello, Body: hello[4 : len(hello)-10]}).AppendTo(nil)
	// Not a point of P-256: crypto/ecdh must refuse it (checked below).
	offCurve := append([]byte{4}, bytes.Repeat([]byte{1}, 64)...)
	if _, err := ecdh.P256().NewPublicKey(offCurve); err == nil {
		t.Fatal("the off-curve value is on the curve")
	}
	// A header claiming 16 MiB, then 1 MiB of its body.
	huge := [][]byte{append([]byte{wire.TypeClientHello, 0xff, 0xff, 0xff}, make([]byte, record.MaxPlaintext-4)...)}
	for i := 0; i < 63; i++ {
		huge = append(huge, make([]byte, record.MaxPlaintext))
	}
	raw := func(b []byte) func(*testing.T, *tapConn) {
		return func(t *testing.T, c *tapConn) {
			if _, err := c.Write(b); err != nil {
				t.Fatal(err)
			}
		}
	}

	for _, tc := range []struct {
		name    string
		client  func(*testing.T, *tapConn)
		wantErr string  // in the error Serve returns
		peer    int     // alert code Serve must return as a *record.AlertError, or -1
		sent    []uint8 // alert descriptions the server sends
	}{
		{"truncated ClientHello", raw(records(record.TypeHandshake, truncated)), "wire: truncated message", -1,
			[]uint8{record.AlertUnexpectedMessage}},
		// Before the ClientHello, a record that is neither a handshake nor
		// an alert record does not look like TLS: no alert. After it, the
		// same record is an unexpected message.
		{"unknown record type", raw(records(99, []byte{1, 2, 3})), "unexpected record type 99", -1, nil},
		{"ChangeCipherSpec in place of ClientHello", raw(records(record.TypeChangeCipherSpec, []byte{1})),
			"in place of the ClientHello", -1, nil},
		{"unknown record type after ClientHello", raw(append(records(record.TypeHandshake, hello), records(99, []byte{1, 2, 3})...)),
			"unexpected record type 99", -1, []uint8{record.AlertUnexpectedMessage}},
		{"malformed alert", raw(records(record.TypeAlert, []byte{2, 80, 0})), "malformed alert", -1,
			[]uint8{record.AlertUnexpectedMessage}},
		{"alert in place of ClientHello", raw(records(record.TypeAlert, []byte{2, 80})), "alert 80", 80, nil},
		{"ChangeCipherSpec before ClientKeyExchange",
			raw(append(records(record.TypeHandshake, hello), records(record.TypeChangeCipherSpec, []byte{1})...)),
			"expected ClientKeyExchange", -1, []uint8{record.AlertUnexpectedMessage}},
		{"off-curve ECDHE value",
			raw(records(record.TypeHandshake, hello, wire.AppendCKE(nil, wire.KexECDHE, offCurve))),
			"bad client ECDHE value", -1, []uint8{record.AlertIllegalParameter}},
		// The client's Finished covers the ClientHello it sent, and the
		// server's transcript the one that arrived with one SNI byte
		// changed; the randoms, and so the keys, are unchanged.
		{"bad client Finished", func(t *testing.T, c *tapConn) {
			c.tamper = func(p []byte) []byte {
				if i := bytes.Index(p, []byte(name)); i >= 0 {
					p[i+len(name)-1] ^= 1
				}
				return p
			}
			_, err := tlsclient.Handshake(c, &tlsclient.Config{ServerName: name, Suites: []uint16{wire.SuiteECDHE}})
			var ae *record.AlertError
			if !errors.As(err, &ae) || ae.Code != record.AlertHandshakeFailure {
				t.Errorf("client: got %v, want the server's handshake_failure alert as a *record.AlertError", err)
			}
		}, "bad client finished", -1, []uint8{record.AlertHandshakeFailure}},
		{"handshake message claiming 16 MiB", raw(records(record.TypeHandshake, huge...)), "exceeds", -1,
			[]uint8{record.AlertInternalError}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cli, srv := simnet.NewBufferedPipe()
			defer cli.Close()
			served := make(chan error, 1)
			go func() {
				defer srv.Close()
				served <- tlsserver.Serve(srv, cfg)
			}()
			c := &tapConn{Conn: cli}
			tc.client(t, c)
			var err error
			select {
			case err = <-served:
			case <-time.After(5 * time.Second):
				cli.Close()
				t.Fatalf("Serve still running 5 s after the client's flight (then: %v)", <-served)
			}
			if _, rerr := io.Copy(io.Discard, c); rerr != nil {
				t.Fatal(rerr)
			}

			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("Serve returned %v, want an error containing %q", err, tc.wantErr)
			}
			var ae *record.AlertError
			if got := errors.As(err, &ae); got != (tc.peer >= 0) || got && int(ae.Code) != tc.peer {
				t.Fatalf("Serve returned %#v; want a *record.AlertError: %v (code %d)", err, tc.peer >= 0, tc.peer)
			}
			if got := alerts(c.read.Bytes()); !bytes.Equal(got, tc.sent) {
				t.Fatalf("server sent alerts %v, want %v", got, tc.sent)
			}
		})
	}
}
