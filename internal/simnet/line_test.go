package simnet

import (
	"net"
	"reflect"
	"testing"
	"time"

	"tlsshortcuts/internal/drbg"
	"tlsshortcuts/internal/keyex"
	"tlsshortcuts/internal/pki"
	"tlsshortcuts/internal/simclock"
	"tlsshortcuts/internal/tlsclient"
	"tlsshortcuts/internal/tlsserver"
	"tlsshortcuts/internal/wire"
)

// lineNet is one terminator, "line.example", and the scanner's client
// configuration against it, offering suite: a full handshake fills
// every slot of the connection's hand-off for that key exchange.
func lineNet(t *testing.T) (*Net, func(c net.Conn, suite uint16) (*tlsclient.Capture, error)) {
	t.Helper()
	now := simclock.Epoch
	root, err := pki.NewRootCA("line root", pki.ECDSAP256, drbg.NewString("line-test|root"))
	if err != nil {
		t.Fatal(err)
	}
	leaf, err := root.IssueLeaf([]string{"line.example"}, pki.ECDSAP256,
		now.AddDate(-1, 0, 0), now.AddDate(1, 0, 0), drbg.NewString("line-test|leaf"))
	if err != nil {
		t.Fatal(err)
	}
	n := New()
	n.Register("line.example", 1, []string{"10.0.0.7"}, &Endpoint{Config: &tlsserver.Config{
		Clock: simclock.Fixed(now), DefaultCert: leaf, RandSeed: []byte("line-test|server"),
	}})
	return n, func(c net.Conn, suite uint16) (*tlsclient.Capture, error) {
		return tlsclient.Handshake(c, &tlsclient.Config{
			ServerName: "line.example", Clock: simclock.Fixed(now), Suites: []uint16{suite},
			Roots: pki.NewRootStore(root), Rand: drbg.NewString("line-test|client"), ReuseKex: true,
		})
	}
}

// TestLineClearsOnClose pins what a Line keeps between connections:
// nothing of the last one. Before Close the hand-off holds the server's
// ECDHE key (or, on a DHE connection, its group and exponent), the
// client's premaster, the key schedule, both AEADs, the served
// certificate and the signature nonce (with which the one signature
// reveals the certificate's key); after Close it is empty, both pipe
// buffers are back in their pool, the deadlines and timers are gone and
// no server runs. A dial into the Line while its connection is open
// fails without touching the network, and the Line then redials.
func TestLineClearsOnClose(t *testing.T) {
	n, handshake := lineNet(t)
	var l Line
	c, err := n.DialProbeInto(&l, "line.example", "line|1")
	if err != nil {
		t.Fatal(err)
	}
	dials := n.DialCount()
	if c2, err := n.DialProbeInto(&l, "line.example", "line|2"); err == nil {
		c2.Close()
		t.Fatal("a dial into a Line with an open connection succeeded")
	}
	if n.DialCount() != dials {
		t.Fatal("the refused dial counted as a dial")
	}
	_ = c.SetDeadline(time.Now().Add(time.Minute))
	cap, err := handshake(c, wire.SuiteECDHE)
	if err != nil {
		t.Fatalf("handshake on the Line after the refused dial: %v", err)
	}
	_, clientPub := keyex.FixedClientECDHE()
	link := reflect.ValueOf(&l.link).Elem()
	if l.link.ServerKey(cap.ServerKEXValue) == nil || l.link.Premaster(clientPub) == nil ||
		*l.link.SKE() == (pki.SKENonce{}) || l.link.Certificate() == nil ||
		link.FieldByName("aead").IsZero() || link.FieldByName("keys").IsZero() {
		t.Fatal("the handshake did not fill the hand-off, so the check below proves nothing")
	}

	c.Close()
	if !link.IsZero() {
		t.Error("after Close the hand-off still holds a value of the closed connection")
	}
	for _, b := range []*pipeBuf{&l.p.ab, &l.p.ba} {
		if b.buf != nil || b.box != nil || b.off != 0 {
			t.Errorf("after Close a pipe buffer holds %d bytes (box %p, offset %d)", len(b.buf), b.box, b.off)
		}
		if !b.rdDeadline.IsZero() || !b.wrDeadline.IsZero() || b.rdArmed || b.wake != nil {
			t.Errorf("after Close a direction keeps deadlines %v/%v (armed %v, timer %p)", b.rdDeadline, b.wrDeadline, b.rdArmed, b.wake)
		}
	}
	if l.busy || l.srv != nil || l.cfg != nil {
		t.Errorf("after Close the Line is busy=%v, serving %v with %p", l.busy, l.srv, l.cfg)
	}
	c.Close() // a second Close returns at once

	c, err = n.DialProbeInto(&l, "line.example", "line|3")
	if err != nil {
		t.Fatalf("redial after Close: %v", err)
	}
	if _, err = handshake(c, wire.SuiteDHE); err != nil {
		t.Fatalf("DHE handshake on the redialed Line: %v", err)
	}
	if link.FieldByName("group").IsZero() || link.FieldByName("exponent").IsZero() || link.FieldByName("keys").IsZero() {
		t.Fatal("the DHE handshake did not fill the hand-off's group, exponent and key schedule")
	}
	c.Close()
	if !link.IsZero() {
		t.Error("after Close the hand-off still holds a value of the closed DHE connection")
	}
}

// TestLineRedialAllocatesNothing guards the reason Line exists: dialing
// a Line again and closing it makes no pipe (a fresh dial allocates the
// Line), no server closure and nothing else.
func TestLineRedialAllocatesNothing(t *testing.T) {
	n, _ := lineNet(t)
	var l Line
	dialClose := func() {
		c, err := n.DialProbeInto(&l, "line.example", "line|alloc")
		if err != nil {
			t.Fatal(err)
		}
		c.Close()
	}
	dialClose()
	if a := testing.AllocsPerRun(100, dialClose); a != 0 {
		t.Fatalf("a Line's dial and Close allocate %v objects, want 0", a)
	}
}
