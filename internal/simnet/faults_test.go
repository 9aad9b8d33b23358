package simnet

import (
	"errors"
	"io"
	"net"
	"os"
	"testing"
	"time"

	"tlsshortcuts/internal/faults"
	"tlsshortcuts/internal/simclock"
	"tlsshortcuts/internal/tlsserver"
)

func faultNet() *Net {
	n := New()
	n.Register("a.example", 1, []string{"10.0.0.1"}, &Endpoint{Config: &tlsserver.Config{}})
	return n
}

func TestDialRefusedClassifiesDial(t *testing.T) {
	n := faultNet()
	clock := simclock.NewManual(simclock.Epoch)
	n.SetFaults(faults.NewPlan(faults.Options{Seed: 1, Refuse: 1}, clock))
	_, err := n.DialProbe("a.example", "probe")
	if err == nil {
		t.Fatal("Refuse=1 plan let a dial through")
	}
	if c := faults.Classify(err); c != faults.ClassDial {
		t.Fatalf("refused dial classified %q, want %q (err: %v)", c, faults.ClassDial, err)
	}
}

func TestNoRouteClassifiesDial(t *testing.T) {
	n := faultNet()
	_, err := n.Dial("nonexistent.example")
	if err == nil {
		t.Fatal("dial to an unregistered domain succeeded")
	}
	if c := faults.Classify(err); c != faults.ClassDial {
		t.Fatalf("no-route dial classified %q, want %q", c, faults.ClassDial)
	}
}

func TestStalledBackendTimesOutReads(t *testing.T) {
	n := faultNet()
	clock := simclock.NewManual(simclock.Epoch)
	n.SetFaults(faults.NewPlan(faults.Options{Seed: 1, StallDomains: []string{"a.example"}}, clock))
	conn, err := n.DialProbe("a.example", "probe")
	if err != nil {
		t.Fatalf("stalled dial should return a connection: %v", err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("client hello bytes")); err != nil {
		t.Fatalf("write to stalled backend should be swallowed: %v", err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
	buf := make([]byte, 16)
	_, err = conn.Read(buf)
	if err == nil {
		t.Fatal("read from stalled backend returned data")
	}
	if c := faults.Classify(err); c != faults.ClassTimeout {
		t.Fatalf("stalled read classified %q, want %q (err: %v)", c, faults.ClassTimeout, err)
	}
}

// TestStallShortCircuitMatchesRealDeadline pins the stall short-circuit
// to the behaviour it replaces: a read on a buffered pipe whose peer
// never answers, failing when its deadline really expires. Both must
// yield the same error and the same failure class, and with no deadline
// the stalled read must block until Close, as the pipe's would.
func TestStallShortCircuitMatchesRealDeadline(t *testing.T) {
	n := faultNet()
	n.SetFaults(faults.NewPlan(faults.Options{Seed: 1, StallDomains: []string{"a.example"}}, simclock.NewManual(simclock.Epoch)))
	readErr := func(conn net.Conn, deadline time.Duration) error {
		defer conn.Close()
		if _, err := conn.Write([]byte("client hello bytes")); err != nil {
			t.Fatalf("write: %v", err)
		}
		_ = conn.SetDeadline(time.Now().Add(deadline))
		_, err := conn.Read(make([]byte, 16))
		return err
	}

	stalled, err := n.DialProbe("a.example", "probe")
	if err != nil {
		t.Fatalf("stalled dial: %v", err)
	}
	start := time.Now()
	short := readErr(stalled, 2*time.Second)
	if d := time.Since(start); d > time.Second {
		t.Fatalf("stalled read waited %v for a 2 s deadline; want an immediate failure", d)
	}
	cli, srv := NewBufferedPipe()
	defer srv.Close()
	expired := readErr(cli, 20*time.Millisecond)

	if !errors.Is(short, os.ErrDeadlineExceeded) || !errors.Is(expired, os.ErrDeadlineExceeded) {
		t.Fatalf("short-circuit error %v, real deadline error %v; want os.ErrDeadlineExceeded for both", short, expired)
	}
	if cs, cr := faults.Classify(short), faults.Classify(expired); cs != cr || cs != faults.ClassTimeout {
		t.Fatalf("short-circuit classified %q, real deadline %q; want %q for both", cs, cr, faults.ClassTimeout)
	}

	// No deadline: the read blocks until Close, then fails like the
	// pipe's own-close read.
	stalled, err = n.DialProbe("a.example", "probe")
	if err != nil {
		t.Fatalf("stalled dial: %v", err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := stalled.Read(make([]byte, 16))
		done <- err
	}()
	select {
	case err := <-done:
		t.Fatalf("stalled read without a deadline returned %v before Close", err)
	case <-time.After(20 * time.Millisecond):
	}
	stalled.Close()
	if err := <-done; !errors.Is(err, io.ErrClosedPipe) {
		t.Fatalf("stalled read after Close returned %v, want io.ErrClosedPipe", err)
	}
}

func TestResetDropsConnectionMidHandshake(t *testing.T) {
	n := faultNet()
	clock := simclock.NewManual(simclock.Epoch)
	n.SetFaults(faults.NewPlan(faults.Options{Seed: 1, Reset: 1}, clock))
	conn, err := n.DialProbe("a.example", "probe")
	if err != nil {
		t.Fatalf("reset dial should return a connection: %v", err)
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
	// An oversized record header: the server errors at the record layer
	// and tears the connection down (directly, or via resetConn cutting
	// off its alert write).
	_, _ = conn.Write([]byte{22, 3, 3, 0xff, 0xff})
	buf := make([]byte, 256)
	for i := 0; i < 16; i++ {
		if _, err = conn.Read(buf); err != nil {
			break
		}
	}
	if err == nil {
		t.Fatal("reset connection never errored")
	}
	if c := faults.Classify(err); c != faults.ClassReset {
		t.Fatalf("reset read classified %q, want %q (err: %v)", c, faults.ClassReset, err)
	}
}

func TestClearingFaultsRestoresNormalDials(t *testing.T) {
	n := faultNet()
	clock := simclock.NewManual(simclock.Epoch)
	n.SetFaults(faults.NewPlan(faults.Options{Seed: 1, Refuse: 1}, clock))
	if _, err := n.DialProbe("a.example", "probe"); err == nil {
		t.Fatal("plan not applied")
	}
	n.SetFaults(nil)
	conn, err := n.Dial("a.example")
	if err != nil {
		t.Fatalf("dial after clearing faults: %v", err)
	}
	conn.Close()
}
