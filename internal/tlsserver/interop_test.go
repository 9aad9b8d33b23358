package tlsserver

import (
	"crypto/tls"
	"crypto/x509"
	"io"
	"net"
	"testing"
	"time"

	"tlsshortcuts/internal/pki"
	"tlsshortcuts/internal/session"
	"tlsshortcuts/internal/ticket"
)

// TestStdlibClientInterop drives Serve with Go's crypto/tls client over
// TLS 1.2 and ECDHE-ECDSA-AES128-GCM-SHA256. crypto/tls checks the
// certificate chain against a pki root, the ServerKeyExchange signature
// and the server's Finished with its own code, and this server checks
// the client's Finished, so a full handshake pins pki's signer and prf's
// key schedule against an independent implementation. Each connection
// then round-trips one application-data record.
//
// With tickets on, the second connection must resume by ticket, in
// every ticket format. Go's TLS 1.2 client resumes only by ticket: with
// tickets off and a session cache on, its second connection is another
// full handshake, so session-ID resumption is left to this repository's
// own client.
func TestStdlibClientInterop(t *testing.T) {
	root, err := pki.NewRootCA("interop root", pki.ECDSAP256, pki.DefaultRand)
	if err != nil {
		t.Fatal(err)
	}
	const name = "interop.example"
	now := time.Now()
	leaf, err := root.IssueLeaf([]string{name}, pki.ECDSAP256, now.Add(-time.Hour), now.Add(24*time.Hour), pki.DefaultRand)
	if err != nil {
		t.Fatal(err)
	}
	roots := x509.NewCertPool()
	roots.AddCert(root.Cert)

	type interopCase struct {
		name   string
		cfg    *Config
		resume bool
	}
	cases := []interopCase{{"session_id", &Config{DefaultCert: leaf, Cache: session.NewCache(time.Hour)}, false}}
	for _, f := range []ticket.Format{ticket.FormatRFC5077, ticket.FormatMbedTLS, ticket.FormatSChannel} {
		stek := ticket.NewStatic([]byte("interop|"+f.String()), f)
		cases = append(cases, interopCase{"ticket_" + f.String(), &Config{DefaultCert: leaf, Tickets: stek}, true})
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tc.cfg.Respond = func(req []byte) []byte { return append([]byte("echo: "), req...) }
			client := &tls.Config{
				RootCAs:            roots,
				ServerName:         name,
				MinVersion:         tls.VersionTLS12,
				MaxVersion:         tls.VersionTLS12,
				CipherSuites:       []uint16{tls.TLS_ECDHE_ECDSA_WITH_AES_128_GCM_SHA256},
				ClientSessionCache: tls.NewLRUClientSessionCache(1),
			}
			for conn := 0; conn < 2; conn++ {
				cs := stdlibRoundTrip(t, tc.cfg, client)
				if cs.CipherSuite != tls.TLS_ECDHE_ECDSA_WITH_AES_128_GCM_SHA256 || cs.Version != tls.VersionTLS12 {
					t.Fatalf("conn %d: negotiated %s, version %x", conn, tls.CipherSuiteName(cs.CipherSuite), cs.Version)
				}
				if want := conn == 1 && tc.resume; cs.DidResume != want {
					t.Fatalf("conn %d: DidResume = %v, want %v", conn, cs.DidResume, want)
				}
			}
		})
	}
}

// stdlibRoundTrip runs one crypto/tls client connection against Serve
// over net.Pipe: a handshake, one request and its response, then
// close_notify. It returns the client's view of the connection once the
// server has returned.
func stdlibRoundTrip(t *testing.T, cfg *Config, client *tls.Config) tls.ConnectionState {
	t.Helper()
	srv, cli := net.Pipe()
	defer cli.Close()
	served := make(chan error, 1)
	go func() {
		defer srv.Close()
		served <- Serve(srv, cfg)
	}()
	deadline := time.Now().Add(10 * time.Second)
	if err := cli.SetDeadline(deadline); err != nil {
		t.Fatal(err)
	}
	c := tls.Client(cli, client)
	if err := c.Handshake(); err != nil {
		cli.Close() // unblocks a server still writing
		t.Fatalf("crypto/tls handshake: %v (server: %v)", err, <-served)
	}
	req := []byte("GET / HTTP/1.1\r\nHost: interop.example\r\n\r\n")
	if _, err := c.Write(req); err != nil {
		t.Fatal(err)
	}
	want := "echo: " + string(req)
	got := make([]byte, len(want))
	if _, err := io.ReadFull(c, got); err != nil {
		t.Fatal(err)
	}
	if string(got) != want {
		t.Fatalf("response %q, want %q", got, want)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-served; err != nil {
		t.Fatalf("Serve: %v", err)
	}
	return c.ConnectionState()
}
