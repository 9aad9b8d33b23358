// Package traffic is the browser-realistic client traffic plane: a
// population of stateful simulated users driving real TLS connections
// (full handshakes, session-ID and ticket resumption, application data)
// at the simulated server population, concurrently with the scanner
// campaign and on the same virtual clock.
//
// Where the scanner *infers* harm — §6's vulnerability windows bound how
// much hypothetical traffic a later compromise would decrypt — the
// traffic plane *measures* it: every user connection is timestamped in
// virtual time and joined against its domain's combined window, yielding
// the fraction of real connections and bytes that landed inside a
// window. The same connections expose the client-side harm Sy et al.
// measured: resumption tracking chains (how long an operator can link
// one user's visits via session state), per browser lifetime policy.
//
// Determinism contract: every draw the workload makes — policy
// assignment, favorite sites, per-day visit schedules, per-visit
// handshake entropy — is keyed on (traffic seed, user id, ...) or
// (traffic seed, domain, visit label), never on worker scheduling or
// global dial order. Users are partitioned across shards by user index.
// Connections dial through the network's stable path (balancer choice
// keyed on (domain, label), the per-domain dial sequence untouched), so
// enabling traffic cannot perturb a single scanner observation: the
// scanner-visible portion of a traffic-on dataset is byte-identical to
// the traffic-off golden run.
package traffic

import (
	"net"
	"time"

	"tlsshortcuts/internal/simnet"
)

// Dialer is the network face the engine needs: the stable dial path,
// which keys the balancer choice on (domain, label) and never consumes
// the per-domain dial sequence the scanner's default dials draw from
// (*simnet.Net implements it). Each visit dials its worker's Line, which
// holds no open connection then.
type Dialer interface {
	DialProbeStableInto(l *simnet.Line, domain, label string) (net.Conn, error)
}

// Policy is one browser-style client session policy: how long the
// client keeps a resumable session, and how many hostnames it keeps one
// for (LRU-bounded). The calibrated defaults follow the browser
// lifetimes and cache sizes reported by Sy et al. ("Tracking Users
// across the Web via TLS Session Resumption").
type Policy struct {
	// Name labels the policy in reports and metrics.
	Name string
	// Lifetime is the client-side session memory: a stored session
	// older than this is never offered again. Successful resumption
	// refreshes the timer (the prolongation that makes long tracking
	// chains possible). A server ticket lifetime hint shorter than this
	// caps the stored ticket's effective lifetime.
	Lifetime time.Duration
	// CacheCap bounds how many hostnames the user holds a session for;
	// beyond it the least-recently-used hostname's session is evicted.
	CacheCap int
	// Weight is the policy's share of the user population (weights are
	// normalized over the table).
	Weight float64
}

// DefaultPolicies is the calibrated browser policy table: Chrome-style
// (1 h session memory, 1024-host cache), Firefox-style (24 h, 2048),
// Safari-style (day-scale memory over a small per-host cache).
func DefaultPolicies() []Policy {
	return []Policy{
		{Name: "chrome", Lifetime: time.Hour, CacheCap: 1024, Weight: 0.60},
		{Name: "firefox", Lifetime: 24 * time.Hour, CacheCap: 2048, Weight: 0.25},
		{Name: "safari", Lifetime: 24 * time.Hour, CacheCap: 32, Weight: 0.15},
	}
}

// Options configures the traffic plane.
type Options struct {
	// Users is the simulated user population size. Zero disables the
	// plane entirely.
	Users int
	// Seed keys every workload draw; study.Run defaults it to the
	// campaign seed. The entropy namespace ("traffic|seed") is disjoint
	// from the scanner's ("study|seed").
	Seed int64
	// Workers sizes the visit worker pool (default 8, the scanner's).
	Workers int
	// MeanVisits is the mean visits per user per day before the
	// per-user activity multiplier (default 6).
	MeanVisits float64
	// CrossHost is the probability that a visit with no session for its
	// destination offers a live session stored for another hostname of
	// the same operator — the cross-hostname linkability probe
	// (default 0.25).
	CrossHost float64
	// Policies overrides the browser policy table (nil = defaults).
	Policies []Policy
	// ShardIndex/ShardCount partition users round-robin by user index
	// (user u runs in shard u % ShardCount). ShardCount <= 1 runs all.
	ShardIndex, ShardCount int
	// Timeout is the per-connection wall-clock deadline (default 5s).
	Timeout time.Duration
}

func (o *Options) meanVisits() float64 {
	if o.MeanVisits > 0 {
		return o.MeanVisits
	}
	return 6
}

func (o *Options) crossHost() float64 {
	if o.CrossHost > 0 {
		return o.CrossHost
	}
	return 0.25
}

func (o *Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return 8
}

func (o *Options) timeout() time.Duration {
	if o.Timeout > 0 {
		return o.Timeout
	}
	return 5 * time.Second
}

func (o *Options) policies() []Policy {
	if len(o.Policies) > 0 {
		return o.Policies
	}
	return DefaultPolicies()
}
