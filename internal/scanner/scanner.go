// Package scanner implements the measurement client of §3: daily
// two-connection ticket scans (STEK identity via key-name prefixing),
// single-connection key-exchange scans, binary-search-free lifetime
// probes in lockstep virtual time, and the cross-domain session
// resumption probes that map shared session caches.
package scanner

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"net"
	"sort"
	"sync"
	"time"

	"tlsshortcuts/internal/drbg"
	"tlsshortcuts/internal/faults"
	"tlsshortcuts/internal/par"
	"tlsshortcuts/internal/pki"
	"tlsshortcuts/internal/simclock"
	"tlsshortcuts/internal/telemetry"
	"tlsshortcuts/internal/ticket"
	"tlsshortcuts/internal/tlsclient"
	"tlsshortcuts/internal/wire"
)

// Dialer opens connections to domains (in the simulation, *simnet.Net).
// Both methods carry the probe's identity label. DialProbe lets the
// network key per-dial decisions (fault injection, balancer choice under
// a fault plan) on the probe rather than on racy global dial order.
// DialProbeStable keys the balancer choice on (domain, label) even with
// no fault plan active; post-campaign passes use it so the backend they
// land on does not depend on how many dials the campaign already issued
// to the domain — a count that differs between monolithic and sharded
// runs of the same campaign.
type Dialer interface {
	DialProbe(domain, label string) (net.Conn, error)
	DialProbeStable(domain, label string) (net.Conn, error)
}

// Topology exposes the AS/IP neighbor lists the cross-domain probes walk.
type Topology interface {
	SameAS(domain string) []string
	SameIP(domain string) []string
}

// Scanner drives measurement connections through a worker pool.
type Scanner struct {
	Dialer  Dialer
	Roots   *pki.RootStore
	Clock   simclock.Clock
	Workers int

	// Seed, when non-nil, makes every connection's client entropy a
	// deterministic function of (Seed, domain, probe label), so a
	// campaign replays byte-identically. nil keeps crypto/rand.
	Seed []byte

	// Timeout bounds each connection in wall time: the scanner arms the
	// conn's read/write deadline so a stalled backend surfaces as a
	// timeout instead of deadlocking a campaign worker forever.
	// 0 means DefaultTimeout; negative disables deadlines.
	Timeout time.Duration

	// Retries is how many times a transiently failed probe (dial /
	// timeout / reset — never alert or protocol, which are deterministic
	// answers) is re-attempted with fresh entropy and a seed-
	// deterministic virtual-clock backoff. 0 means DefaultRetries;
	// negative disables retries.
	Retries int

	// Telemetry, when non-nil, receives per-probe counters and latency
	// histograms. Telemetry observes, never perturbs: a nil registry
	// takes the pre-instrumentation code paths untouched, and an
	// enabled one changes no probe behavior (see internal/telemetry).
	Telemetry *telemetry.Registry

	// latNames caches the rendered per-family histogram names
	// ("wall/scanner/latency/<family>", "scanner/vlatency/<family>");
	// families are bounded but probes are not, and concatenating the
	// names on every probe is a measurable slice of a campaign's
	// allocations.
	latNames sync.Map // metric family -> [2]string{wall, virtual}

	// arenas holds one connection arena per worker slot, grown lazily by
	// ensureArenas before a pool spins up and reused across every scan
	// this Scanner runs. Indexed by the worker slot par.ForEach hands
	// out, so no locking is needed inside a probe.
	arenas []*workerArena
}

// workerArena is one worker's recycled per-connection state: the Config
// rebuilt per probe, the two Captures a two-connection scan fills, and
// the reseedable client-entropy stream. Everything a probe retains past
// the connection (Sessions, Observation bytes) is copied out of the
// arena before the next probe overwrites it.
type workerArena struct {
	cfg  tlsclient.Config
	cap1 tlsclient.Capture
	cap2 tlsclient.Capture
	rng  drbg.Reader
}

// ensureArenas grows the arena table to the worker count. Called before
// goroutines spawn; not safe during a scan.
func (s *Scanner) ensureArenas() {
	for n := s.workers(); len(s.arenas) < n; {
		s.arenas = append(s.arenas, &workerArena{})
	}
}

// Scan hardening defaults: generous wall-clock deadline (simnet
// handshakes finish in microseconds; only a stalled peer ever reaches
// it) and two retries, matching common active-scan practice.
const (
	DefaultTimeout = 5 * time.Second
	DefaultRetries = 2

	backoffBase = 250 * time.Millisecond
	backoffCap  = 8 * time.Second
)

func (s *Scanner) workers() int {
	if s.Workers > 0 {
		return s.Workers
	}
	return 8
}

func (s *Scanner) timeout() time.Duration {
	switch {
	case s.Timeout > 0:
		return s.Timeout
	case s.Timeout < 0:
		return 0
	}
	return DefaultTimeout
}

func (s *Scanner) retries() int {
	switch {
	case s.Retries > 0:
		return s.Retries
	case s.Retries < 0:
		return 0
	}
	return DefaultRetries
}

// connect opens one scan connection, retrying transient failures with a
// bounded, seed-deterministic backoff applied on the virtual clock. label
// names the probe (scan kind, day, connection number) so that with a
// seeded scanner each connection — including each retry, which gets a
// "|r<k>" suffix — draws from its own reproducible entropy stream
// regardless of worker scheduling. The returned class is the LAST
// attempt's failure classification (ClassNone on success).
func (s *Scanner) connect(ar *workerArena, dst *tlsclient.Capture, domain, label string, cfg *tlsclient.Config) (faults.ErrClass, error) {
	tel := s.Telemetry
	var mlabel string
	var start time.Time
	if tel != nil {
		mlabel = metricLabel(label)
		tel.Counter(telemetry.CounterProbes).Inc()
		start = time.Now()
	}
	callerRand := cfg.Rand
	var wait time.Duration
	for attempt := 0; ; attempt++ {
		alabel := label
		if attempt > 0 {
			alabel = fmt.Sprintf("%s|r%d", label, attempt)
		}
		if tel != nil {
			tel.Counter(telemetry.CounterHandshakesStarted).Inc()
		}
		class, err := s.connectOnce(ar, dst, domain, alabel, cfg, callerRand, wait)
		if err == nil || attempt >= s.retries() || !faults.Transient(class) {
			if tel != nil {
				elapsed := time.Since(start)
				tel.Counter(telemetry.CounterBusyNanos).Add(uint64(elapsed))
				// Two latency views per probe family: real elapsed time
				// (wall/, scheduling-dependent) and virtual time — the
				// accumulated retry backoff the probe waited out on the
				// virtual timeline, a deterministic function of the plan.
				names := s.latencyNames(mlabel)
				tel.Histogram(names[0]).Observe(elapsed)
				tel.Histogram(names[1]).Observe(wait)
				if err != nil {
					tel.Counter(telemetry.CounterProbeFailures).Inc()
					tel.Counter(telemetry.CounterErrorPrefix + string(class)).Inc()
				} else {
					tel.Counter(telemetry.CounterHandshakesCompleted).Inc()
				}
			}
			return class, err
		}
		if tel != nil {
			tel.Counter(telemetry.CounterRetries).Inc()
			tel.Counter(telemetry.CounterRetryClassPrefix + string(class)).Inc()
		}
		wait += s.backoff(domain, label, attempt)
	}
}

// latencyNames returns the cached histogram names for a probe family.
func (s *Scanner) latencyNames(family string) [2]string {
	if v, ok := s.latNames.Load(family); ok {
		return v.([2]string)
	}
	names := [2]string{"wall/scanner/latency/" + family, "scanner/vlatency/" + family}
	s.latNames.Store(family, names)
	return names
}

// metricLabel reduces a probe label to its first two |-separated
// segments ("daily|ticket|3|1" → "daily|ticket", "lt|id|poll|7200" →
// "lt|id") so per-family histograms stay bounded instead of growing one
// series per scan day and poll step.
func metricLabel(label string) string {
	sep := 0
	for i := 0; i < len(label); i++ {
		if label[i] == '|' {
			sep++
			if sep == 2 {
				return label[:i]
			}
		}
	}
	return label
}

// connectOnce opens a single connection attempt. wait is the accumulated
// retry backoff: rather than mutating the shared lockstep clock (which
// would race against other workers and shift every concurrent probe), the
// attempt sees a per-connection offset view of virtual time.
func (s *Scanner) connectOnce(ar *workerArena, dst *tlsclient.Capture, domain, label string, cfg *tlsclient.Config, callerRand io.Reader, wait time.Duration) (faults.ErrClass, error) {
	conn, err := s.Dialer.DialProbe(domain, label)
	if err != nil {
		return faults.ClassDial, err
	}
	defer conn.Close()
	if t := s.timeout(); t > 0 {
		_ = conn.SetDeadline(time.Now().Add(t))
	}
	cfg.ServerName = domain
	cfg.Clock = s.Clock
	if wait > 0 && s.Clock != nil {
		cfg.Clock = offsetClock{base: s.Clock, off: wait}
	}
	cfg.Roots = s.Roots
	cfg.ReuseKex = true
	cfg.Rand = callerRand
	if callerRand == nil && s.Seed != nil {
		// Same stream as a fresh NewParts reader, reseeded in place.
		ar.rng.ReseedParts(s.Seed, domain, label)
		cfg.Rand = &ar.rng
	}
	if err := tlsclient.HandshakeInto(dst, conn, cfg); err != nil {
		return faults.Classify(err), err
	}
	return faults.ClassNone, nil
}

// backoff derives attempt k's virtual-time delay: exponential from
// backoffBase with seed-deterministic jitter, capped at backoffCap.
func (s *Scanner) backoff(domain, label string, attempt int) time.Duration {
	d := backoffBase << uint(attempt)
	if d > backoffCap {
		d = backoffCap
	}
	if s.Seed != nil {
		var jb [8]byte
		r := drbg.New(s.Seed, []byte(domain), []byte(label), []byte(fmt.Sprintf("backoff|%d", attempt)))
		_, _ = io.ReadFull(r, jb[:])
		d += time.Duration(binary.BigEndian.Uint64(jb[:]) % uint64(backoffBase))
	}
	return d
}

// offsetClock shifts a base clock by a fixed amount for one connection,
// so a retried probe "waits out" its backoff on the virtual timeline
// without touching the shared clock other workers are synchronized on.
type offsetClock struct {
	base simclock.Clock
	off  time.Duration
}

// Now returns the shifted virtual time.
func (c offsetClock) Now() time.Time { return c.base.Now().Add(c.off) }

// Observation is one domain's result from a daily scan.
type Observation struct {
	Domain       string
	Day          int
	OK           bool
	Trusted      bool
	Suite        uint16
	Kex          wire.Kex
	KEXValue     []byte // server key-exchange public value, first connection
	KEXValue2    []byte // second connection (key-exchange scans only)
	TicketIssued bool
	LifetimeHint time.Duration
	STEKID       []byte // stable ticket-key ID from the two-connection scan
	Err          error  `json:"-"`

	// ErrClass classifies the first connection's failure; ErrClass2 the
	// second (STEK-pair or KEX-reuse) connection's. A failed second
	// connection is NOT the same observation as "no reuse seen" — the
	// study excludes such pairs from reuse denominators.
	ErrClass  faults.ErrClass `json:",omitempty"`
	ErrClass2 faults.ErrClass `json:",omitempty"`

	// Inline backing arrays for KEXValue/KEXValue2/STEKID (heap fallback
	// for oversized values): the Captures those slices used to alias are
	// arena-recycled between probes. An Observation copied by value keeps
	// aliasing the source element's arrays, which is fine for the
	// fold-per-day aggregation (it hex-encodes what it keeps) but means
	// observations must be consumed before their slice is reused.
	kexb1, kexb2 [72]byte
	stekb        [20]byte
}

// obsBytes copies b into an observation's inline storage, falling back
// to the heap when oversized; nil stays nil.
func obsBytes(dst, b []byte) []byte {
	if b == nil {
		return nil
	}
	if len(b) <= len(dst) {
		return dst[:copy(dst, b)]
	}
	return append([]byte(nil), b...)
}

// Daily scans each domain once for the given virtual day. With
// offerTicket set it makes the paper's two back-to-back ticket
// connections and derives the STEK ID from the pair; with a non-nil
// suite list it restricts the offered suites (key-exchange scans) and
// makes two connections to detect server value reuse.
func (s *Scanner) Daily(domains []string, day int, suites []uint16, offerTicket bool) []Observation {
	return s.DailyInto(nil, domains, day, suites, offerTicket)
}

// DailyInto is Daily writing into dst's storage (grown as needed), so a
// campaign folding each day's observations as the day completes can
// reuse one buffer for the whole run instead of retaining per-day
// slices — the incremental-aggregation half of the sharding work.
func (s *Scanner) DailyInto(dst []Observation, domains []string, day int, suites []uint16, offerTicket bool) []Observation {
	kind := "plain"
	switch {
	case offerTicket:
		kind = "ticket"
	case len(suites) > 0:
		kind = fmt.Sprintf("kex%04x", suites[0])
	}
	// Forced-suite scans stop after the ServerKeyExchange, as zgrab's
	// key-exchange grabs do. Everything they record is on the wire before
	// the client's second flight, so the abbreviated probe observes
	// exactly what the full handshake would.
	kexOnly := len(suites) > 0 && !offerTicket
	// Probe labels depend only on (kind, day), never on the domain — the
	// domain salts the entropy stream inside connect — so they are built
	// once per scan, not once per connection.
	l1 := fmt.Sprintf("daily|%s|%d|1", kind, day)
	l2 := fmt.Sprintf("daily|%s|%d|2", kind, day)
	out := dst[:0]
	if cap(out) < len(domains) {
		out = make([]Observation, len(domains))
	} else {
		out = out[:len(domains)]
		clear(out)
	}
	s.ensureArenas()
	par.ForEach(s.workers(), len(domains), func(w, i int) {
		ar := s.arenas[w]
		o := &out[i]
		o.Domain = domains[i]
		o.Day = day
		cfg := &ar.cfg
		*cfg = tlsclient.Config{Suites: suites, OfferTicket: offerTicket, KexOnly: kexOnly}
		cap1 := &ar.cap1
		class, err := s.connect(ar, cap1, domains[i], l1, cfg)
		if err != nil {
			o.Err = err
			o.ErrClass = class
			return
		}
		o.OK = true
		o.Trusted = cap1.Trusted
		o.Suite = cap1.CipherSuite
		o.Kex = cap1.KexAlg
		o.KEXValue = obsBytes(o.kexb1[:], cap1.ServerKEXValue)
		o.TicketIssued = cap1.TicketIssued
		o.LifetimeHint = cap1.LifetimeHint
		if offerTicket && cap1.TicketIssued {
			*cfg = tlsclient.Config{Suites: suites, OfferTicket: true}
			class2, err := s.connect(ar, &ar.cap2, domains[i], l2, cfg)
			switch {
			case err != nil:
				o.ErrClass2 = class2
			case ar.cap2.TicketIssued:
				o.STEKID = obsBytes(o.stekb[:], ticket.DetectKeyID(cap1.Ticket, ar.cap2.Ticket))
			}
		} else if suites != nil {
			*cfg = tlsclient.Config{Suites: suites, KexOnly: kexOnly}
			class2, err := s.connect(ar, &ar.cap2, domains[i], l2, cfg)
			if err != nil {
				o.ErrClass2 = class2
			} else {
				o.KEXValue2 = obsBytes(o.kexb2[:], ar.cap2.ServerKEXValue)
			}
		}
	})
	return out
}

// ProbeResult is one domain's lifetime-probe outcome.
type ProbeResult struct {
	Domain      string
	OK          bool          // initial handshake succeeded and produced a session
	ResumedAt1s bool          // the 1-second sanity resumption succeeded
	MaxDelay    time.Duration // longest delay at which resumption still worked
	Hint        time.Duration // server's ticket lifetime hint, if any

	// ErrClass classifies the initial handshake's failure when OK is
	// false for a network reason (empty for a clean "no session issued").
	ErrClass faults.ErrClass `json:",omitempty"`
}

// LifetimeProbe measures how long sessions stay resumable (§3, Figures
// 1-2). All targets are probed in lockstep on the shared virtual clock:
// an initial handshake, a 1 s sanity resumption, then polls every poll up
// to max, stopping each domain at its first failed resumption. Resumption
// always replays the ORIGINAL session, so the result measures the
// server-side lifetime of the first secret, not a sliding refresh.
func (s *Scanner) LifetimeProbe(targets []string, useTicket bool, poll, max time.Duration) []ProbeResult {
	clock, ok := s.Clock.(*simclock.Manual)
	if !ok {
		panic("scanner: LifetimeProbe requires a *simclock.Manual clock")
	}
	mode := "id"
	if useTicket {
		mode = "ticket"
	}
	start := clock.Now()
	out := make([]ProbeResult, len(targets))
	sessions := make([]*tlsclient.Session, len(targets))
	s.ensureArenas()
	par.ForEach(s.workers(), len(targets), func(w, i int) {
		ar := s.arenas[w]
		out[i].Domain = targets[i]
		cfg := &ar.cfg
		*cfg = tlsclient.Config{OfferTicket: useTicket}
		cap1 := &ar.cap1
		class, err := s.connect(ar, cap1, targets[i], "lt|"+mode+"|init", cfg)
		if err != nil {
			out[i].ErrClass = class
			return
		}
		if useTicket && !cap1.TicketIssued {
			return
		}
		if !useTicket && len(cap1.SessionID) == 0 {
			return
		}
		out[i].OK = true
		out[i].Hint = cap1.LifetimeHint
		// Sessions own their bytes and are heap-allocated per handshake,
		// so retaining them past the arena Capture's recycling is safe.
		sessions[i] = cap1.Session
	})

	alive := make([]bool, len(targets))
	probe := func(ar *workerArena, i int, label string) bool {
		cfg := &ar.cfg
		*cfg = tlsclient.Config{Resume: sessions[i], ResumeViaTicket: useTicket}
		_, err := s.connect(ar, &ar.cap2, targets[i], label, cfg)
		return err == nil && ar.cap2.Resumed
	}

	clock.Set(start.Add(time.Second))
	par.ForEach(s.workers(), len(targets), func(w, i int) {
		if out[i].OK && probe(s.arenas[w], i, "lt|"+mode+"|1s") {
			out[i].ResumedAt1s = true
			alive[i] = true
		}
	})
	for d := poll; d <= max; d += poll {
		clock.Set(start.Add(d))
		label := fmt.Sprintf("lt|%s|poll|%d", mode, int64(d/time.Second))
		any := false
		par.ForEach(s.workers(), len(targets), func(w, i int) {
			if !alive[i] {
				return
			}
			if probe(s.arenas[w], i, label) {
				out[i].MaxDelay = d
			} else {
				alive[i] = false
			}
		})
		for i := range alive {
			if alive[i] {
				any = true
				break
			}
		}
		if !any {
			break
		}
	}
	clock.Set(start)
	return out
}

// XDStats counts the cross-domain pass's denominators, so failed probes
// are distinguishable from genuinely unshared caches.
type XDStats struct {
	Probed      int // targets probed
	Sessioned   int // targets whose initial handshake produced a session ID
	InitFailed  int // targets whose initial handshake failed
	ProbeFailed int // candidate resumption connections that failed
}

// CrossDomainGroups maps shared session caches (§5, Table 5): for each
// target it establishes a session, then tries to resume it against up to
// nAS same-AS and nIP same-IP neighbors, unioning every pair that accepts
// a foreign session ID. Candidates are a prefix of a per-domain seeded
// shuffle, so a larger budget strictly extends a smaller one.
func (s *Scanner) CrossDomainGroups(targets []string, topo Topology, nAS, nIP int) (*UnionFind, XDStats) {
	return s.CrossDomainGroupsIn(targets, targets, topo, nAS, nIP)
}

// CrossDomainGroupsIn is CrossDomainGroups with the initiator set split
// from the candidate population: only initiators establish sessions and
// walk their neighbors, but candidacy is judged against pop. A sharded
// campaign passes its core slice as initiators and the FULL trusted core
// as pop, so a shard discovers exactly the edges whose initiating domain
// it owns — the union of all shards' edges is the monolithic edge set.
func (s *Scanner) CrossDomainGroupsIn(initiators, pop []string, topo Topology, nAS, nIP int) (*UnionFind, XDStats) {
	targets := initiators
	inPop := make(map[string]bool, len(pop))
	for _, d := range pop {
		inPop[d] = true
	}
	uf := NewUnionFind()
	st := XDStats{Probed: len(targets)}
	var mu sync.Mutex
	s.ensureArenas()
	par.ForEach(s.workers(), len(targets), func(w, i int) {
		ar := s.arenas[w]
		domain := targets[i]
		cfg := &ar.cfg
		*cfg = tlsclient.Config{}
		if _, err := s.connect(ar, &ar.cap1, domain, "xd|init", cfg); err != nil {
			mu.Lock()
			st.InitFailed++
			mu.Unlock()
			return
		}
		if len(ar.cap1.SessionID) == 0 {
			return
		}
		mu.Lock()
		// Seed the union-find with every sessioned domain: Sets() then
		// includes singletons, so "shares with nobody" is a group of one
		// and is distinguishable from "handshake failed".
		uf.Find(domain)
		st.Sessioned++
		mu.Unlock()
		// The candidate probes below recycle cap1, so hold the session
		// (heap-allocated, owns its bytes) rather than the Capture.
		sess := ar.cap1.Session
		cands := seededPrefix(domain, topo.SameAS(domain), nAS)
		cands = append(cands, seededPrefix(domain, topo.SameIP(domain), nIP)...)
		seen := map[string]bool{domain: true}
		for _, cand := range cands {
			if seen[cand] || !inPop[cand] {
				continue
			}
			seen[cand] = true
			*cfg = tlsclient.Config{Resume: sess}
			if _, err := s.connect(ar, &ar.cap2, cand, "xd|probe|"+domain, cfg); err != nil {
				mu.Lock()
				st.ProbeFailed++
				mu.Unlock()
				continue
			}
			if ar.cap2.Resumed {
				mu.Lock()
				uf.Union(domain, cand)
				mu.Unlock()
			}
		}
	})
	return uf, st
}

// seededPrefix returns the first n elements of a deterministic per-domain
// shuffle of list. Only the first n draws of a Fisher-Yates pass run, so
// the cost is O(n) rather than O(len(list)); the selection is still a
// prefix of the same infinite shuffle, so a larger budget strictly
// extends a smaller one.
func seededPrefix(domain string, list []string, n int) []string {
	if len(list) == 0 || n <= 0 {
		return nil
	}
	h := fnv.New64a()
	h.Write([]byte(domain))
	rng := rand.New(rand.NewSource(int64(h.Sum64())))
	shuffled := append([]string(nil), list...)
	if n > len(shuffled) {
		n = len(shuffled)
	}
	for i := 0; i < n && i < len(shuffled)-1; i++ {
		j := i + rng.Intn(len(shuffled)-i)
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	}
	return shuffled[:n]
}

// UnionFind tracks connected components of domain names.
type UnionFind struct {
	parent map[string]string
	size   map[string]int
}

// NewUnionFind returns an empty structure.
func NewUnionFind() *UnionFind {
	return &UnionFind{parent: make(map[string]string), size: make(map[string]int)}
}

// Find returns the component representative, adding x if unseen. The walk
// is iterative with full path compression — the recursive version could
// exhaust the stack on adversarially long chains, and compressing keeps
// repeated queries near O(1).
func (u *UnionFind) Find(x string) string {
	if _, ok := u.parent[x]; !ok {
		u.parent[x] = x
		u.size[x] = 1
		return x
	}
	root := x
	for {
		p := u.parent[root]
		if p == root {
			break
		}
		root = p
	}
	for x != root {
		x, u.parent[x] = u.parent[x], root
	}
	return root
}

// Union merges the components of a and b, attaching the smaller tree
// under the larger (Sets canonicalizes output, so representative choice
// never shows in results).
func (u *UnionFind) Union(a, b string) {
	ra, rb := u.Find(a), u.Find(b)
	if ra == rb {
		return
	}
	if u.size[ra] < u.size[rb] {
		ra, rb = rb, ra
	}
	u.parent[rb] = ra
	u.size[ra] += u.size[rb]
}

// Sets returns the components, each sorted, largest first.
func (u *UnionFind) Sets() [][]string {
	groups := make(map[string][]string)
	for x := range u.parent {
		r := u.Find(x)
		groups[r] = append(groups[r], x)
	}
	out := make([][]string, 0, len(groups))
	for _, g := range groups {
		sort.Strings(g)
		out = append(out, g)
	}
	sort.Slice(out, func(i, j int) bool {
		if len(out[i]) != len(out[j]) {
			return len(out[i]) > len(out[j])
		}
		return out[i][0] < out[j][0]
	})
	return out
}
