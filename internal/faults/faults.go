// Package faults compiles a seeded, deterministic fault plan for the
// simulated network. The real campaign the paper ran (§3) faced daily
// unreachable hosts, mid-handshake resets, and list churn; the simnet is
// otherwise a perfect network, so nothing exercises the denominator
// discipline the paper's longevity numbers depend on. A Plan makes the
// network lossy in a replayable way: every fault decision is a pure
// function of (plan seed, domain, probe identity, virtual day), so the
// same seed and plan produce a byte-identical campaign dataset regardless
// of worker count or goroutine scheduling, and a nil Plan is provably
// inert (the dialer's fast path is untouched).
//
// The package also owns the scan-failure taxonomy: every failed probe is
// classified as dial / timeout / reset / alert / protocol, serialized in
// the dataset instead of a bare error string.
package faults

import (
	"encoding/binary"
	"errors"
	"hash/fnv"
	"io"
	"net"
	"os"
	"strings"
	"time"

	"tlsshortcuts/internal/simclock"
)

// Kind enumerates the injectable network faults.
type Kind uint8

const (
	// None means the dial proceeds normally.
	None Kind = iota
	// Refuse fails the dial immediately (connection refused).
	Refuse
	// Reset lets the server write a bounded number of records, then
	// drops the connection mid-handshake (connection reset).
	Reset
	// Stall accepts the connection and reads the client's bytes but
	// never answers, forcing the client's read deadline to expire.
	Stall
	// Flap refuses every dial landing on one backend for a whole
	// virtual day (a flapping balancer target).
	Flap
	// Churn drops the whole domain out of the population for a window
	// of virtual days (list churn: the dial resolves to nothing).
	Churn
)

// String names the fault kind.
func (k Kind) String() string {
	switch k {
	case None:
		return "none"
	case Refuse:
		return "refuse"
	case Reset:
		return "reset"
	case Stall:
		return "stall"
	case Flap:
		return "flap"
	case Churn:
		return "churn"
	}
	return "unknown"
}

// Options configures a fault plan. All probabilities are in [0,1]; the
// zero Options injects nothing and compiles to a nil (inert) Plan.
type Options struct {
	// Seed drives every fault decision. The same Options replay the
	// same faults for the same probe schedule.
	Seed int64

	Refuse float64 // per-dial probability of a refused connection
	Reset  float64 // per-dial probability of a mid-handshake reset
	Stall  float64 // per-dial probability of a stalled (never-answering) server
	Flap   float64 // per-(backend, day) probability of a whole-day outage
	Churn  float64 // per-domain probability of one multi-day churn window

	// ChurnMaxDays bounds a churn window's length (default 3).
	ChurnMaxDays int
	// Days is the campaign length churn windows are placed in (default 64).
	Days int
	// Base is virtual day zero (default simclock.Epoch).
	Base time.Time

	// StallDomains lists domains whose every dial stalls, regardless of
	// the probabilistic knobs — targeted worst-case robustness tests.
	StallDomains []string
}

// Zero reports whether the options inject no fault at all.
func (o *Options) Zero() bool {
	return o == nil || (o.Refuse == 0 && o.Reset == 0 && o.Stall == 0 &&
		o.Flap == 0 && o.Churn == 0 && len(o.StallDomains) == 0)
}

// Plan is a compiled fault plan. A nil *Plan is valid and inert.
type Plan struct {
	o       Options
	clock   simclock.Clock
	stalled map[string]bool
}

// NewPlan compiles the options against the campaign clock (used to map
// dial times to virtual days). Zero options compile to nil: the network's
// fault-free fast path stays byte-identical to a plan-less run.
func NewPlan(o Options, clock simclock.Clock) *Plan {
	if o.Zero() {
		return nil
	}
	if o.ChurnMaxDays <= 0 {
		o.ChurnMaxDays = 3
	}
	if o.Days <= 0 {
		o.Days = 64
	}
	if o.Base.IsZero() {
		o.Base = simclock.Epoch
	}
	if clock == nil {
		clock = simclock.System()
	}
	p := &Plan{o: o, clock: clock}
	if len(o.StallDomains) > 0 {
		p.stalled = make(map[string]bool, len(o.StallDomains))
		for _, d := range o.StallDomains {
			p.stalled[d] = true
		}
	}
	return p
}

// Active reports whether the plan injects any fault.
func (p *Plan) Active() bool { return p != nil }

// Options returns a copy of the compiled options (zero for a nil plan).
func (p *Plan) Options() Options {
	if p == nil {
		return Options{}
	}
	return p.o
}

func (p *Plan) day() int {
	d := int(p.clock.Now().Sub(p.o.Base) / (24 * time.Hour))
	if d < 0 {
		d = 0
	}
	return d
}

// Fault is one dial's compiled outcome.
type Fault struct {
	Kind Kind
	// AllowWrites is how many record writes a Reset lets the server
	// complete before dropping the connection (0–2: before the
	// ServerHello, after it, or mid server flight).
	AllowWrites int
}

// Decide compiles the fault for one dial. label is the probe identity the
// scanner supplies (scan kind, day, connection number, retry); when it is
// empty (a plain Dial), the per-domain sequence number seq keys the
// decision instead. backend is the index of the balancer target the dial
// selected. Decisions are pure functions of (seed, domain, key, day), so
// they replay identically across runs and worker counts.
func (p *Plan) Decide(domain, label string, backend int, seq uint64) Fault {
	if p == nil {
		return Fault{}
	}
	day := p.day()
	if start, end, ok := p.ChurnWindow(domain); ok && day >= start && day < end {
		return Fault{Kind: Churn}
	}
	if p.stalled[domain] {
		return Fault{Kind: Stall}
	}
	if p.o.Flap > 0 && p.roll("flap", domain, itoa(backend), itoa(day)) < p.o.Flap {
		return Fault{Kind: Flap}
	}
	key := label
	if key == "" {
		key = "seq:" + utoa(seq)
	}
	switch r := p.roll("dial", domain, key); {
	case r < p.o.Refuse:
		return Fault{Kind: Refuse}
	case r < p.o.Refuse+p.o.Reset:
		return Fault{Kind: Reset, AllowWrites: int(p.hash("allow", domain, key) % 3)}
	case r < p.o.Refuse+p.o.Reset+p.o.Stall:
		return Fault{Kind: Stall}
	}
	return Fault{}
}

// ChurnWindow returns the half-open [start, end) day range during which
// the domain is churned out of the population, if the plan assigns one.
func (p *Plan) ChurnWindow(domain string) (start, end int, ok bool) {
	if p == nil || p.o.Churn <= 0 {
		return 0, 0, false
	}
	if p.roll("churn", domain) >= p.o.Churn {
		return 0, 0, false
	}
	length := 1 + int(p.hash("churnlen", domain)%uint64(p.o.ChurnMaxDays))
	span := p.o.Days - length
	if span < 1 {
		span = 1
	}
	start = int(p.hash("churnstart", domain) % uint64(span))
	return start, start + length, true
}

// Backend deterministically selects a balancer target for a labeled
// probe. Under an active plan the dialer keys backend choice on the probe
// identity instead of a shared sequence counter, so runs with different
// worker counts replay identically; the selection is still non-affine
// (each connection's label differs, so back-to-back connections spread
// across backends exactly as A-record jitter would).
func (p *Plan) Backend(domain, label string, n int) int {
	if n <= 1 {
		return 0
	}
	return int(p.hash("backend", domain, label) % uint64(n))
}

// hash mixes the seed and parts through FNV-64a plus a splitmix64
// finalizer (FNV's low bits alternate for near-identical inputs).
func (p *Plan) hash(parts ...string) uint64 {
	h := fnv.New64a()
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], uint64(p.o.Seed))
	h.Write(b[:])
	for _, s := range parts {
		h.Write([]byte{0})
		h.Write([]byte(s))
	}
	return mix64(h.Sum64())
}

// roll maps a hash to a uniform float in [0,1).
func (p *Plan) roll(parts ...string) float64 {
	return float64(p.hash(parts...)>>11) / (1 << 53)
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

func itoa(v int) string { return utoa(uint64(v)) }

func utoa(v uint64) string {
	var b [20]byte
	i := len(b)
	for {
		i--
		b[i] = byte('0' + v%10)
		v /= 10
		if v == 0 {
			return string(b[i:])
		}
	}
}

// ---- error taxonomy ----

// ErrClass is the serializable scan-failure taxonomy. The empty class
// means "no error"; it is omitted from JSON so fault-free datasets stay
// byte-identical to pre-taxonomy ones.
type ErrClass string

const (
	ClassNone     ErrClass = ""         // connection succeeded
	ClassDial     ErrClass = "dial"     // refused, churned out, or no route
	ClassTimeout  ErrClass = "timeout"  // read/write deadline expired (stalled peer)
	ClassReset    ErrClass = "reset"    // connection dropped mid-handshake
	ClassAlert    ErrClass = "alert"    // server sent a fatal TLS alert
	ClassProtocol ErrClass = "protocol" // any other TLS-level failure
)

// DialError is a dial-phase failure, typed so Classify (and callers
// matching with errors.As) can recognize it without string matching.
type DialError struct {
	Domain string
	Reason string
}

// Error formats the failure like a net dialer would.
func (e *DialError) Error() string { return "dial " + e.Domain + ": " + e.Reason }

// alertCoder is implemented by record.AlertError; an interface keeps
// this package free of a TLS-engine dependency.
type alertCoder interface{ AlertCode() uint8 }

// Classify maps one scan connection's error into the taxonomy. Dial-phase
// errors should be classified by the caller (it knows the phase); this
// function still recognizes DialError for convenience.
func Classify(err error) ErrClass {
	if err == nil {
		return ClassNone
	}
	var de *DialError
	if errors.As(err, &de) {
		return ClassDial
	}
	if errors.Is(err, os.ErrDeadlineExceeded) {
		return ClassTimeout
	}
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return ClassTimeout
	}
	var ac alertCoder
	if errors.As(err, &ac) {
		return ClassAlert
	}
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) ||
		errors.Is(err, io.ErrClosedPipe) ||
		strings.Contains(err.Error(), "closed pipe") ||
		strings.Contains(err.Error(), "connection reset") {
		return ClassReset
	}
	return ClassProtocol
}

// Transient reports whether a failure class is worth retrying: network
// faults are, protocol-level rejections (alerts, parse failures) are
// deterministic answers and are not.
func Transient(c ErrClass) bool {
	return c == ClassDial || c == ClassTimeout || c == ClassReset
}
