// Package simnet is the simulated Internet's plumbing: a registry of
// domains bound to SSL-terminator backends, a dialer that returns real
// net.Conn pipes (spawning the server side per connection), load-balancer
// fan-out without client affinity, and the AS/IP topology the
// cross-domain resumption probes walk.
package simnet

import (
	"errors"
	"net"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"tlsshortcuts/internal/faults"
	"tlsshortcuts/internal/handoff"
	"tlsshortcuts/internal/telemetry"
	"tlsshortcuts/internal/tlsserver"
)

// Endpoint is one terminator backend.
type Endpoint struct {
	Config *tlsserver.Config
}

type binding struct {
	backends []*Endpoint
	as       int
	ips      []string
	// dialSeq is per-domain so the k-th connection to a domain always
	// lands on the same backend regardless of how dials to other
	// domains interleave — which keeps A-record jitter deterministic
	// for a deterministic probe schedule.
	dialSeq atomic.Uint64
}

// Net is the address space and dialer.
type Net struct {
	mu      sync.RWMutex
	domains map[string]*binding
	byAS    map[int][]string
	byIP    map[string][]string
	plan    *faults.Plan
	dials   atomic.Uint64
	tel     *telemetry.Registry
}

// New returns an empty network.
func New() *Net {
	return &Net{
		domains: make(map[string]*binding),
		byAS:    make(map[int][]string),
		byIP:    make(map[string][]string),
	}
}

// Register binds a domain to its AS, IPs, and backends.
func (n *Net) Register(domain string, as int, ips []string, backends ...*Endpoint) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.domains[domain] = &binding{backends: backends, as: as, ips: ips}
	n.byAS[as] = append(n.byAS[as], domain)
	for _, ip := range ips {
		n.byIP[ip] = append(n.byIP[ip], domain)
	}
}

// HasDomain reports whether the domain resolves.
func (n *Net) HasDomain(domain string) bool {
	n.mu.RLock()
	defer n.mu.RUnlock()
	_, ok := n.domains[domain]
	return ok
}

// Domains returns every registered name, sorted.
func (n *Net) Domains() []string {
	n.mu.RLock()
	defer n.mu.RUnlock()
	out := make([]string, 0, len(n.domains))
	for d := range n.domains {
		out = append(out, d)
	}
	sort.Strings(out)
	return out
}

// SetFaults installs (or, with nil, clears) the fault plan the dialer
// consults on every connection. With a nil plan the dial path is
// byte-identical to a fault-free network.
func (n *Net) SetFaults(p *faults.Plan) {
	n.mu.Lock()
	n.plan = p
	n.mu.Unlock()
}

// SetTelemetry installs (or, with nil, clears) the metrics registry the
// dialer reports dials, fault injections, and backend choices through.
// Telemetry observes, never perturbs: the registry changes no dial
// outcome, and nil restores the pre-instrumentation path.
func (n *Net) SetTelemetry(r *telemetry.Registry) {
	n.mu.Lock()
	n.tel = r
	n.mu.Unlock()
}

// Dial opens a connection to the domain. The backend is chosen without
// client affinity: successive dials may land on different terminators,
// exactly the balancer behavior that frustrates naive run-length metrics.
// Close on the returned connection returns once its server is done.
func (n *Net) Dial(domain string) (net.Conn, error) {
	return n.dial(domain, "", false)
}

// DialProbe is Dial carrying the probe's identity label. Under an active
// fault plan both the fault decision and the balancer choice key on
// (domain, label) instead of the shared per-domain dial sequence, so a
// campaign's faults replay identically for any worker count; with no plan
// the label is ignored and the path matches Dial exactly.
func (n *Net) DialProbe(domain, label string) (net.Conn, error) {
	return n.dial(domain, label, false)
}

// DialProbeStable is DialProbe with the balancer choice keyed on
// (domain, label) even when no fault plan is active. The daily scans
// deliberately ride the shared per-domain dial sequence (balancer
// non-affinity is part of what they measure), but a post-campaign pass
// like the cryptanalysis capture must land on the same backend whether
// the campaign ran monolithic or sharded — and the sequence value at
// that point differs between the two (a shard's domains receive
// cross-domain probe connections only from the shard's own initiators).
// The traffic plane dials exclusively through this path for the same
// reason: its visits must not consume the per-domain dial sequence the
// daily scans ride, or enabling traffic would change scanner-visible
// backend choices (TestStableDialsDoNotPerturbDialSequence pins this).
func (n *Net) DialProbeStable(domain, label string) (net.Conn, error) {
	return n.dial(domain, label, true)
}

func (n *Net) dial(domain, label string, stable bool) (net.Conn, error) {
	n.mu.RLock()
	b, ok := n.domains[domain]
	plan := n.plan
	tel := n.tel
	n.mu.RUnlock()
	if !ok || len(b.backends) == 0 {
		if tel != nil {
			tel.Counter("simnet/dial_errors").Inc()
		}
		return nil, &faults.DialError{Domain: domain, Reason: "no route"}
	}
	n.dials.Add(1)
	if tel != nil {
		tel.Counter("simnet/dials").Inc()
	}
	var idx int
	var seq uint64
	if plan.Active() && label != "" {
		idx = plan.Backend(domain, label, len(b.backends))
	} else if stable && label != "" {
		// Keyed like the fault-plan path: a pure function of the probe's
		// identity, independent of every other dial in the run.
		h := uint64(fnvOffset64)
		for i := 0; i < len(domain); i++ {
			h ^= uint64(domain[i])
			h *= fnvPrime64
		}
		h ^= '|'
		h *= fnvPrime64
		for i := 0; i < len(label); i++ {
			h ^= uint64(label[i])
			h *= fnvPrime64
		}
		idx = int(mix64(h) % uint64(len(b.backends)))
	} else {
		seq = b.dialSeq.Add(1)
		// Inline FNV-1a over domain || seq (little-endian), identical to
		// hashing through hash/fnv but without the hasher allocation or
		// the string-to-bytes conversion on every dial.
		h := uint64(fnvOffset64)
		for i := 0; i < len(domain); i++ {
			h ^= uint64(domain[i])
			h *= fnvPrime64
		}
		for i := 0; i < 8; i++ {
			h ^= uint64(byte(seq >> (8 * i)))
			h *= fnvPrime64
		}
		// FNV's low bits alternate for consecutive sequence numbers; run the
		// sum through a 64-bit finalizer so back-to-back dials pick
		// independently.
		idx = int(mix64(h) % uint64(len(b.backends)))
	}
	ep := b.backends[idx]
	if tel != nil {
		// The backend multiset per domain is worker-count-invariant (the
		// per-domain dial sequence or, under a plan, the probe label keys
		// the choice), so these counters are deterministic metrics.
		tel.Counter(backendCounterName(idx)).Inc()
	}
	if f := plan.Decide(domain, label, idx, seq); f.Kind != faults.None {
		if tel != nil {
			tel.Counter(telemetry.CounterFaultPrefix + f.Kind.String()).Inc()
		}
		switch f.Kind {
		case faults.Refuse:
			return nil, &faults.DialError{Domain: domain, Reason: "connection refused"}
		case faults.Flap:
			return nil, &faults.DialError{Domain: domain, Reason: "backend down"}
		case faults.Churn:
			return nil, &faults.DialError{Domain: domain, Reason: "no such host"}
		case faults.Stall:
			cli, _ := NewBufferedPipe()
			return &stallConn{Conn: cli}, nil
		case faults.Reset:
			p := newPipePair()
			p.serve(&resetConn{Conn: &p.b, allow: f.AllowWrites}, ep.Config)
			return &p.a, nil
		}
	}
	p := newPipePair()
	p.serve(&p.b, ep.Config)
	return &p.a, nil
}

// serve runs the terminator on srv, the b end of p or a wrapper of it,
// in a new goroutine that closes srv once Serve returns. Closing the a
// end waits for that goroutine, so a dialed connection's Close includes
// its server's exit, and the server state alive at once (pooled
// handshake state, pipe buffers) is bounded by the dialing goroutines
// instead of by how far the scheduler lags behind them. Both ends carry
// the pair's hand-off: a as end 0, b as end 1.
func (p *pipePair) serve(srv net.Conn, cfg *tlsserver.Config) {
	p.a.link, p.b.link, p.b.end = &p.link, &p.link, 1
	p.a.served = &p.served
	p.served.Add(1)
	go func() {
		defer p.served.Done()
		defer srv.Close()
		_ = tlsserver.Serve(srv, cfg)
	}()
}

// stallConn is the client end of a Stall-faulted connection: a buffered
// pipe whose peer never reads or answers, so writes are swallowed. The
// plan decided at dial time that no byte will ever arrive, so a read
// under a deadline fails at once with the error that deadline would give
// on expiry. With no deadline a read blocks until Close, as it would on
// a stalled peer.
type stallConn struct {
	net.Conn
	deadline atomic.Bool
}

func (c *stallConn) Read(p []byte) (int, error) {
	if c.deadline.Load() {
		return 0, os.ErrDeadlineExceeded
	}
	return c.Conn.Read(p)
}

func (c *stallConn) SetDeadline(t time.Time) error {
	c.deadline.Store(!t.IsZero())
	return c.Conn.SetDeadline(t)
}

func (c *stallConn) SetReadDeadline(t time.Time) error {
	c.deadline.Store(!t.IsZero())
	return c.Conn.SetReadDeadline(t)
}

var errReset = errors.New("simnet: connection reset by peer")

// resetConn is the server side of a Reset-faulted connection: it lets a
// bounded number of TLS records through, then closes both directions so
// the client sees the handshake cut off mid-flight. The budget counts
// record frames inside the written bytes, not Write calls, so the
// client-visible cut point is independent of how the record layer
// batches records into writes.
type resetConn struct {
	net.Conn
	allow int
}

// Handoff passes the pipe's hand-off through: a cut connection hands
// over only what was published before the cut.
func (c *resetConn) Handoff() (*handoff.Link, handoff.End) { return handoff.Of(c.Conn) }

func (c *resetConn) Write(p []byte) (int, error) {
	off := 0
	for off < len(p) {
		if c.allow <= 0 {
			var n int
			if off > 0 {
				var err error
				n, err = c.Conn.Write(p[:off])
				if err != nil {
					return n, err
				}
			}
			_ = c.Conn.Close()
			return n, errReset
		}
		// One record frame: 5-byte header, big-endian length at [3:5].
		// A malformed tail counts as a single record.
		frame := len(p) - off
		if off+5 <= len(p) {
			if fl := 5 + int(p[off+3])<<8 + int(p[off+4]); fl <= len(p)-off {
				frame = fl
			}
		}
		c.allow--
		off += frame
	}
	return c.Conn.Write(p)
}

// DialCount returns the number of connections opened so far — the
// campaign benchmarks divide it by wall time for handshakes/sec.
func (n *Net) DialCount() uint64 { return n.dials.Load() }

// FNV-1a 64-bit parameters (hash/fnv's constants, inlined on the dial
// path).
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// backendCounterNames pre-renders the per-backend telemetry counter names
// for the small backend counts the population uses; dial is hot and a
// string concatenation per call is measurable.
var backendCounterNames = [8]string{
	"simnet/backend/0", "simnet/backend/1", "simnet/backend/2", "simnet/backend/3",
	"simnet/backend/4", "simnet/backend/5", "simnet/backend/6", "simnet/backend/7",
}

func backendCounterName(idx int) string {
	if idx >= 0 && idx < len(backendCounterNames) {
		return backendCounterNames[idx]
	}
	return "simnet/backend/" + strconv.Itoa(idx)
}

// mix64 is the splitmix64 finalizer.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// SameAS returns the other domains announced from the domain's AS,
// sorted (the scanner samples a prefix of a seeded shuffle).
func (n *Net) SameAS(domain string) []string {
	n.mu.RLock()
	defer n.mu.RUnlock()
	b, ok := n.domains[domain]
	if !ok {
		return nil
	}
	return others(n.byAS[b.as], domain)
}

// SameIP returns the other domains sharing any of the domain's IPs.
func (n *Net) SameIP(domain string) []string {
	n.mu.RLock()
	defer n.mu.RUnlock()
	b, ok := n.domains[domain]
	if !ok {
		return nil
	}
	seen := map[string]bool{domain: true}
	var out []string
	for _, ip := range b.ips {
		for _, d := range n.byIP[ip] {
			if !seen[d] {
				seen[d] = true
				out = append(out, d)
			}
		}
	}
	sort.Strings(out)
	return out
}

func others(list []string, self string) []string {
	out := make([]string, 0, len(list))
	for _, d := range list {
		if d != self {
			out = append(out, d)
		}
	}
	sort.Strings(out)
	return out
}
