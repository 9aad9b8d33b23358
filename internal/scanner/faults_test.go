package scanner

import (
	"io"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"tlsshortcuts/internal/faults"
	"tlsshortcuts/internal/population"
	"tlsshortcuts/internal/simclock"
)

// dialFunc adapts a fake's dial method to Dialer. The fakes ignore the
// probe label, so both dial paths are the one function.
type dialFunc func(domain string) (net.Conn, error)

func (f dialFunc) DialProbe(domain, _ string) (net.Conn, error)       { return f(domain) }
func (f dialFunc) DialProbeStable(domain, _ string) (net.Conn, error) { return f(domain) }

// stallDialer returns connections whose server side swallows every byte
// and never answers — the pathology that used to deadlock a worker.
// Unlike simnet's Stall fault, which fails the read at once, its pipe
// makes the worker wait out a real wall-clock deadline.
type stallDialer struct{ dials atomic.Int64 }

func (d *stallDialer) Dial(domain string) (net.Conn, error) {
	d.dials.Add(1)
	cli, srv := net.Pipe()
	go func() {
		_, _ = io.Copy(io.Discard, srv)
		_ = srv.Close()
	}()
	return cli, nil
}

// refuseDialer fails every dial.
type refuseDialer struct{ dials atomic.Int64 }

func (d *refuseDialer) Dial(domain string) (net.Conn, error) {
	d.dials.Add(1)
	return nil, &faults.DialError{Domain: domain, Reason: "connection refused"}
}

// resetDialer reads a few bytes of the client's first flight, then drops
// the connection.
type resetDialer struct{}

func (d *resetDialer) Dial(domain string) (net.Conn, error) {
	cli, srv := net.Pipe()
	go func() {
		buf := make([]byte, 5)
		_, _ = io.ReadFull(srv, buf)
		_ = srv.Close()
	}()
	return cli, nil
}

// flakyDialer fails the first failures dials, then delegates to a real
// network.
type flakyDialer struct {
	inner    func(domain string) (net.Conn, error)
	failures int64
	dials    atomic.Int64
}

func (d *flakyDialer) Dial(domain string) (net.Conn, error) {
	if d.dials.Add(1) <= d.failures {
		return nil, &faults.DialError{Domain: domain, Reason: "transient refusal"}
	}
	return d.inner(domain)
}

// runDaily runs one single-domain ticket scan under a watchdog: the whole
// point of scan deadlines is that a campaign can no longer hang forever.
func runDaily(t *testing.T, s *Scanner, domain string, timeout time.Duration) Observation {
	t.Helper()
	done := make(chan []Observation, 1)
	go func() { done <- s.Daily([]string{domain}, 0, nil, true) }()
	select {
	case obs := <-done:
		if len(obs) != 1 {
			t.Fatalf("expected 1 observation, got %d", len(obs))
		}
		return obs[0]
	case <-time.After(timeout):
		t.Fatalf("Daily did not finish within %v — scan deadline not enforced", timeout)
		return Observation{}
	}
}

// TestStalledBackendScanCompletesWithTimeout drives a scanner worker
// through a real read deadline expiring on a silent peer: Scanner.Timeout
// is what keeps a real hang (tlsscan over TCP) from stopping a scan.
func TestStalledBackendScanCompletesWithTimeout(t *testing.T) {
	s := &Scanner{
		Dialer:  dialFunc((&stallDialer{}).Dial),
		Clock:   simclock.NewManual(simclock.Epoch),
		Workers: 1,
		Timeout: 100 * time.Millisecond,
		Retries: -1,
	}
	o := runDaily(t, s, "stall.example", 10*time.Second)
	if o.OK {
		t.Fatal("stalled scan reported OK")
	}
	if o.ErrClass != faults.ClassTimeout {
		t.Fatalf("stalled scan classified %q, want %q (err: %v)", o.ErrClass, faults.ClassTimeout, o.Err)
	}
}

func TestRefusedScanRetriesThenGivesUp(t *testing.T) {
	d := &refuseDialer{}
	s := &Scanner{
		Dialer:  dialFunc(d.Dial),
		Clock:   simclock.NewManual(simclock.Epoch),
		Workers: 1,
		Retries: 2,
	}
	o := runDaily(t, s, "refuse.example", 10*time.Second)
	if o.OK {
		t.Fatal("refused scan reported OK")
	}
	if o.ErrClass != faults.ClassDial {
		t.Fatalf("refused scan classified %q, want %q", o.ErrClass, faults.ClassDial)
	}
	if got := d.dials.Load(); got != 3 {
		t.Fatalf("Retries=2 should attempt 3 dials, got %d", got)
	}
}

func TestMidHandshakeDropClassifiesReset(t *testing.T) {
	s := &Scanner{
		Dialer:  dialFunc((&resetDialer{}).Dial),
		Clock:   simclock.NewManual(simclock.Epoch),
		Workers: 1,
		Timeout: time.Second,
		Retries: -1,
	}
	o := runDaily(t, s, "reset.example", 10*time.Second)
	if o.OK {
		t.Fatal("reset scan reported OK")
	}
	if o.ErrClass != faults.ClassReset {
		t.Fatalf("reset scan classified %q, want %q (err: %v)", o.ErrClass, faults.ClassReset, o.Err)
	}
}

func TestTransientFailureRecoveredByRetry(t *testing.T) {
	w, err := population.Build(population.Options{ListSize: 200, Seed: 1})
	if err != nil {
		t.Fatalf("building world: %v", err)
	}
	d := &flakyDialer{inner: w.Net.Dial, failures: 2}
	s := &Scanner{
		Dialer:  dialFunc(d.Dial),
		Roots:   w.Roots,
		Clock:   w.Clock,
		Workers: 1,
		Retries: 2,
	}
	o := runDaily(t, s, "yahoo.com", 30*time.Second)
	if !o.OK {
		t.Fatalf("retries should have recovered the flaky dials: class=%q err=%v", o.ErrClass, o.Err)
	}
	if o.ErrClass != faults.ClassNone || o.ErrClass2 != faults.ClassNone {
		t.Fatalf("recovered scan should carry no error class, got %q/%q", o.ErrClass, o.ErrClass2)
	}
	if got := d.dials.Load(); got < 3 {
		t.Fatalf("expected at least 3 dials (2 failures + success), got %d", got)
	}
}
