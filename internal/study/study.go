// Package study orchestrates the paper's measurement campaign (§3) over
// the simulated population: daily two-connection ticket scans, daily
// key-exchange scans, session-lifetime probes in virtual time, and
// cross-domain resumption probes; the results land in a serializable
// Dataset from which every table and figure regenerates.
package study

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math/bits"
	"os"
	"sort"
	"time"

	"tlsshortcuts/internal/cryptanalysis"
	"tlsshortcuts/internal/faults"
	"tlsshortcuts/internal/population"
	"tlsshortcuts/internal/scanner"
	"tlsshortcuts/internal/simclock"
	"tlsshortcuts/internal/telemetry"
	"tlsshortcuts/internal/traffic"
	"tlsshortcuts/internal/vulnwindow"
	"tlsshortcuts/internal/wire"
)

// Options configures a campaign.
type Options struct {
	ListSize int
	Days     int
	Seed     int64
	Workers  int
	Logf     func(format string, args ...interface{})

	// Faults, when non-nil and non-zero, compiles a deterministic fault
	// plan the simulated network consults on every dial, making the
	// campaign run against a lossy network. The plan's Days and Base
	// default to the campaign's.
	Faults *faults.Options

	// ProbeTimeout overrides the scanner's per-connection wall-clock
	// deadline (0 = scanner default, negative disables).
	ProbeTimeout time.Duration

	// Retries overrides the scanner's transient-failure retry budget
	// (0 = scanner default, negative disables).
	Retries int

	// Telemetry, when non-nil, collects the campaign's metrics: scanner
	// probe counters and latency histograms, simnet dial/fault/backend
	// counts, and the TLS engines' key-exchange, session, ticket and
	// hand-off counters, attached to the world's terminators and the
	// scanner's connections. The registry counts this campaign alone,
	// whatever else runs in the process. Telemetry observes, never
	// perturbs: nil leaves every code path untouched, and an enabled
	// registry reproduces the same golden dataset hash (the default and
	// telemetry rows of TestCampaignDeterminism).
	Telemetry *telemetry.Registry

	// Trace, when non-nil, receives one JSONL telemetry.Span line per
	// scan phase (each lifetime pass, each scan day, the cross-domain
	// pass). Tracing without a Telemetry registry uses a private one
	// for span accounting; write errors are logged, never fatal.
	Trace io.Writer

	// Observer, when non-nil, receives one PhaseEvent at the start and
	// the end of every campaign phase (each lifetime pass, each scan
	// day, the cross-domain pass, the cryptanalysis pass). End events
	// carry the completed telemetry.Span plus per-phase failure-class,
	// fault-kind, and STEK-rotation counter deltas — the feed the obsv
	// flight recorder journals. Like Trace, observing without a
	// Telemetry registry uses a private one for delta accounting. An
	// observer that returns an error ABORTS the campaign (that is the
	// abort path the flight recorder finalizes journals through); a
	// journaling observer that must never fail the run returns nil and
	// records its write error internally.
	Observer CampaignObserver

	// Shard, when non-nil, restricts the campaign to one deterministic
	// slice of the domain list (see ShardSpec). The world is still built
	// in full — so ranks, operators, and per-domain server state are
	// identical to the monolithic run's — but only the shard's domains
	// are scanned. MergeDatasets recombines the shards' outputs into a
	// dataset byte-identical to the monolithic campaign's.
	Shard *ShardSpec

	// Traffic, when non-nil with positive Users, runs the browser-
	// realistic traffic plane alongside the campaign: stateful simulated
	// users driving real connections at the same population on the same
	// virtual clock, with results landing in Dataset.Traffic (including
	// the measured-exposure join against the campaign's §6 vulnerability
	// windows). The plane's Seed and Workers default to the campaign's,
	// and its user partition follows the campaign's Shard. Traffic is
	// observationally inert for the scanner: with it on, every other
	// dataset field is byte-identical to the traffic-off run.
	Traffic *traffic.Options

	// WeakCrypto appends the calibrated vulnerable operator profiles to
	// the population (see population.Options.WeakCrypto) and runs the
	// post-campaign cryptanalysis pass: tap-recorded captures, the
	// weak-STEK dictionary search, key-name/keystream probes, the weak-
	// prime audit, and the attacker replay measuring decryption yield,
	// all landing in Dataset.Crypt. Off by default; with it off the
	// dataset is byte-identical to the baseline golden.
	WeakCrypto bool
}

// CampaignObserver is the phase-lifecycle hook study.Run drives. The
// interface is satisfied structurally (obsv.Journal implements it
// without importing this package); the PhaseEvent payload lives in
// telemetry so both sides share one vocabulary.
type CampaignObserver interface {
	OnPhase(ev telemetry.PhaseEvent) error
}

// ShardSpec names one slice of a sharded campaign: shard Index of Count
// scans the domains at rank positions p with p % Count == Index. Every
// connection's entropy, fault decision, and backend choice is keyed on
// (domain, probe label) or on the domain's own dial sequence — never on
// global dial order — so a domain's observations are identical whether
// its shard runs alone or alongside the rest of the campaign.
type ShardSpec struct {
	Index int
	Count int
}

// Validate rejects out-of-range shard coordinates.
func (s *ShardSpec) Validate() error {
	if s.Count < 1 {
		return fmt.Errorf("study: shard count must be >= 1, got %d", s.Count)
	}
	if s.Index < 0 || s.Index >= s.Count {
		return fmt.Errorf("study: shard index %d out of range [0,%d)", s.Index, s.Count)
	}
	return nil
}

func (o *Options) logf(format string, args ...interface{}) {
	if o.Logf != nil {
		o.Logf(format, args...)
	}
}

// Snapshot is a day-zero support census for one mechanism.
type Snapshot struct {
	Scanned int // domains probed
	Trusted int // with a browser-trusted chain
	Support int // trusted and negotiated the mechanism
	Reuse2x int // same server value on two immediate connections

	// PairFailed counts supporting domains whose second (pair)
	// connection failed: those pairs are excluded from reuse
	// denominators rather than silently counted as "no reuse".
	PairFailed int `json:",omitempty"`
}

// FailureCount is one (scan, class) cell of the campaign failure table.
type FailureCount struct {
	Scan  string // which probe: ticket, ticket-pair, dhe, dhe-pair, ecdhe, ecdhe-pair, lifetime-id, lifetime-ticket
	Class string // faults.ErrClass of the final attempt
	Count int
}

// Dataset is everything a campaign measured, JSON-serializable so
// analysis (cmd/report) can rerun without the 9-week scan.
type Dataset struct {
	ListSize    int
	Days        int
	Seed        int64
	ScaleFactor float64

	TrustedCore []string
	Operators   map[string]string
	Ranks       map[string]int

	TicketSnapshot Snapshot
	DHESnapshot    Snapshot
	ECDHESnapshot  Snapshot

	// Per-domain, per-secret-ID bitmask of the days the secret was
	// observed (bit d = virtual day d; campaigns are capped at 64 days),
	// one sorted table per mechanism. Each serializes as the nested
	// object {"domain":{"id":days}} (see Spans).
	STEKSpans  Spans
	DHESpans   Spans
	ECDHESpans Spans

	IDLifetime     []scanner.ProbeResult
	TicketLifetime []scanner.ProbeResult

	CacheGroups [][]string
	STEKGroups  [][]string
	DHGroups    [][]string
	DHSingleton int // reused DH values confined to a single domain

	// Lossy-network accounting. Every field below is empty on a
	// fault-free run and omitted from JSON, so clean datasets stay
	// byte-identical to pre-taxonomy ones (the golden hash proves it).

	// FaultPlan records the injected fault options, when any.
	FaultPlan *faults.Options `json:",omitempty"`
	// Failures aggregates failed scan connections by (scan, class),
	// sorted for stable serialization. Key-exchange first connections
	// count only transient classes: a forced-suite alert from a server
	// that does not speak the suite is a measurement, not a failure.
	Failures []FailureCount `json:",omitempty"`
	// MissedDays maps domain -> bitmask of virtual days on which its
	// daily ticket scan failed. The consistent core — the paper's §3
	// denominator — is the trusted core minus any domain with a bit set.
	MissedDays map[string]uint64 `json:",omitempty"`
	// XDStats records the cross-domain pass's denominators when any of
	// its connections failed.
	XDStats *scanner.XDStats `json:",omitempty"`

	// Crypt holds the cryptanalysis pass findings and the attacker
	// replay yield. Nil unless the campaign ran with WeakCrypto, so
	// baseline datasets serialize byte-identically to pre-cryptanalysis
	// ones (the golden hash proves it).
	Crypt *cryptanalysis.Findings `json:",omitempty"`

	// Traffic holds the traffic plane's measurements (per-policy
	// connection, chain, and per-domain volume tallies, plus the window
	// join). Nil unless the campaign ran with Traffic, so traffic-off
	// datasets serialize byte-identically to pre-traffic ones (the
	// golden hash proves it).
	Traffic *traffic.Results `json:",omitempty"`

	// Shard identifies which slice of the campaign this dataset covers;
	// nil for a monolithic run. MergeDatasets clears it, so a merged
	// dataset serializes byte-identically to the monolithic one.
	Shard *ShardSpec `json:",omitempty"`

	// Dials counts the TLS connections the campaign made. It is run
	// telemetry for benchmarks, not a measurement, so it stays out of the
	// serialized dataset (which must be byte-stable for a given seed).
	Dials uint64 `json:"-"`
}

// Save writes the dataset as JSON.
func (d *Dataset) Save(path string) error {
	b, err := json.Marshal(d)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// Load reads a dataset written by Save.
func Load(path string) (*Dataset, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	ds, err := decodeDataset(b)
	if err != nil {
		return nil, fmt.Errorf("study: bad dataset %s: %w", path, err)
	}
	return ds, nil
}

// Run executes a full campaign.
func Run(o Options) (*Dataset, error) {
	if o.Days < 1 || o.Days > 64 {
		return nil, fmt.Errorf("study: Days must be in [1,64], got %d", o.Days)
	}
	// A trace, an observer or the traffic plane without a registry still
	// needs one for span, delta and progress accounting: a private one.
	trafficOn := o.Traffic != nil && o.Traffic.Users > 0
	reg := o.Telemetry
	if reg == nil && (o.Trace != nil || o.Observer != nil || trafficOn) {
		reg = telemetry.NewRegistry()
	}
	world, err := population.Build(population.Options{ListSize: o.ListSize, Seed: o.Seed, WeakCrypto: o.WeakCrypto})
	if err != nil {
		return nil, err
	}
	clock := world.Clock.(*simclock.Manual)
	start := clock.Now()
	scan := &scanner.Scanner{
		Dialer: world.Net, Roots: world.Roots, Clock: clock, Workers: o.Workers,
		Seed:      []byte(fmt.Sprintf("study|%d", o.Seed)),
		Timeout:   o.ProbeTimeout,
		Retries:   o.Retries,
		Telemetry: reg,
	}
	if reg != nil {
		world.Net.SetTelemetry(reg)
	}
	sp := newSpanner(o, reg, clock)

	var eng *traffic.Engine
	if trafficOn {
		topts := *o.Traffic
		if topts.Seed == 0 {
			topts.Seed = o.Seed
		}
		if topts.Workers == 0 {
			topts.Workers = o.Workers
		}
		if o.Shard != nil {
			topts.ShardIndex, topts.ShardCount = o.Shard.Index, o.Shard.Count
		}
		eng, err = traffic.NewEngine(world, topts, reg)
		if err != nil {
			return nil, err
		}
		o.logf("traffic plane: %d users, mean %.1f visits/day", topts.Users, topts.MeanVisits)
	}

	core := world.TrustedCoreDomains()
	all := allByRank(world)
	// A sharded run scans only its round-robin slice of the (full,
	// identically built) world; everything downstream of these two lists
	// is per-domain, so the slice's results match the monolithic run's.
	scanAll, scanCore := all, core
	if o.Shard != nil {
		if err := o.Shard.Validate(); err != nil {
			return nil, err
		}
		scanAll = population.Shard(all, o.Shard.Index, o.Shard.Count)
		member := make(map[string]bool, len(scanAll))
		for _, d := range scanAll {
			member[d] = true
		}
		kept := make([]string, 0, len(core)/o.Shard.Count+1)
		for _, d := range core {
			if member[d] {
				kept = append(kept, d)
			}
		}
		scanCore = kept
		o.logf("shard %d/%d: %d of %d domains (%d of %d core)",
			o.Shard.Index, o.Shard.Count, len(scanAll), len(all), len(scanCore), len(core))
	}
	ds := &Dataset{
		ListSize:    o.ListSize,
		Days:        o.Days,
		Seed:        o.Seed,
		ScaleFactor: world.ScaleFactor,
		TrustedCore: core,
		Operators:   make(map[string]string, len(world.Domains)),
		Ranks:       make(map[string]int, len(world.Domains)),
	}
	for name, d := range world.Domains {
		ds.Operators[name] = d.Operator
		ds.Ranks[name] = d.Rank
	}
	if o.Shard != nil {
		spec := *o.Shard
		ds.Shard = &spec
	}

	if !o.Faults.Zero() {
		fo := *o.Faults
		if fo.Days <= 0 {
			fo.Days = o.Days
		}
		if fo.Base.IsZero() {
			fo.Base = start
		}
		if fo.ChurnMaxDays <= 0 {
			fo.ChurnMaxDays = 3
		}
		world.Net.SetFaults(faults.NewPlan(fo, clock))
		ds.FaultPlan = &fo
		o.logf("fault plan active: refuse %.3f reset %.3f stall %.3f flap %.3f churn %.3f",
			fo.Refuse, fo.Reset, fo.Stall, fo.Flap, fo.Churn)
	}

	agg := newAggregator(ds)

	// Session-lifetime probes (Figures 1-2) run first, in lockstep
	// virtual time from the campaign start.
	o.logf("lifetime probes: session IDs (%d domains)", len(scanCore))
	if err := sp.begin("lifetime-id", -1, len(scanCore)); err != nil {
		return nil, err
	}
	ds.IDLifetime = scan.LifetimeProbe(scanCore, false, 15*time.Minute, 30*time.Hour)
	if err := sp.end("lifetime-id", -1, len(scanCore), probeFails(ds.IDLifetime), 0); err != nil {
		return nil, err
	}
	o.logf("lifetime probes: tickets")
	if err := sp.begin("lifetime-ticket", -1, len(scanCore)); err != nil {
		return nil, err
	}
	ds.TicketLifetime = scan.LifetimeProbe(scanCore, true, time.Hour, 36*time.Hour)
	if err := sp.end("lifetime-ticket", -1, len(scanCore), probeFails(ds.TicketLifetime), 0); err != nil {
		return nil, err
	}
	agg.foldLifetime("lifetime-id", ds.IDLifetime)
	agg.foldLifetime("lifetime-ticket", ds.TicketLifetime)

	// Daily scans, each folded into per-secret aggregates (and on day 0
	// snapshotted) before the next one starts. The ticket, DHE and ECDHE
	// scans take turns in one observation buffer, reused across the whole
	// campaign, so the daily loop retains one scan's observations; what
	// it keeps beyond them grows with the distinct secrets seen (see
	// aggregator).
	var obs []scanner.Observation
	for day := 0; day < o.Days; day++ {
		clock.Set(start.Add(time.Duration(day) * 24 * time.Hour))
		if err := sp.begin("day", day, len(scanAll)); err != nil {
			return nil, err
		}
		obs = scan.DailyInto(obs, scanAll, day, nil, true)
		if day == 0 {
			ds.TicketSnapshot = ticketSnapshot(obs)
		}
		dayFails, pairFails := agg.foldTicketDay(obs, day)
		obs = scan.DailyInto(obs, scanCore, day, []uint16{wire.SuiteDHE}, false)
		if day == 0 {
			ds.DHESnapshot = kexSnapshot(obs, wire.KexDHE)
		}
		df, pf := agg.foldKexDay(obs, "dhe", wire.KexDHE, agg.dhe, day)
		dayFails, pairFails = dayFails+df, pairFails+pf
		obs = scan.DailyInto(obs, scanCore, day, []uint16{wire.SuiteECDHE}, false)
		if day == 0 {
			ds.ECDHESnapshot = kexSnapshot(obs, wire.KexECDHE)
		}
		df, pf = agg.foldKexDay(obs, "ecdhe", wire.KexECDHE, agg.ecdhe, day)
		dayFails, pairFails = dayFails+df, pairFails+pf
		reg.Counter(telemetry.CounterDaysCompleted).Inc()
		if err := sp.end("day", day, len(scanAll), dayFails, pairFails); err != nil {
			return nil, err
		}
		o.logf("day %d/%d scanned", day+1, o.Days)
		if eng != nil {
			// The traffic day runs after the scan day at the same virtual
			// day start; RunDay walks the clock through the day's hour
			// slots and restores the day-start instant before returning,
			// so the next phase sees the same clock as a traffic-off run.
			if err := sp.begin("traffic-day", day, 0); err != nil {
				return nil, err
			}
			tv, tf := eng.RunDay(day)
			if err := sp.end("traffic-day", day, tv, tf, 0); err != nil {
				return nil, err
			}
			o.logf("day %d/%d traffic: %d visits, %d failed", day+1, o.Days, tv, tf)
		}
	}
	agg.finish()

	// Grouping passes (§5). A shard initiates only from its own core
	// slice but probes candidates against the FULL core, so every edge
	// whose initiator the shard owns is discovered exactly as in the
	// monolithic run.
	o.logf("cross-domain cache probes (budget 5+5)")
	if err := sp.begin("cross-domain", -1, len(scanCore)); err != nil {
		return nil, err
	}
	uf, xd := scan.CrossDomainGroupsIn(scanCore, core, world.Net, 5, 5)
	if err := sp.end("cross-domain", -1, len(scanCore), xd.InitFailed, xd.ProbeFailed); err != nil {
		return nil, err
	}
	if xd.InitFailed > 0 || xd.ProbeFailed > 0 {
		ds.XDStats = &xd
		o.logf("cross-domain: %d/%d sessioned, %d init + %d probe connections failed",
			xd.Sessioned, xd.Probed, xd.InitFailed, xd.ProbeFailed)
	} else if o.Shard != nil {
		// A shard always carries its denominators: a clean shard's
		// Probed/Sessioned counts are needed to reconstruct the
		// monolithic XDStats if any sibling shard saw failures.
		// MergeDatasets drops the merged stats when no shard failed, so
		// the merged JSON still matches the monolithic run's.
		ds.XDStats = &xd
	}
	ds.CacheGroups = multiSets(uf)
	ds.STEKGroups = secretGroups(ds.STEKSpans)
	ds.DHGroups, ds.DHSingleton = dhGroups(ds.DHESpans, ds.ECDHESpans)

	// Weak-crypto cryptanalysis pass (after the campaign proper: every
	// connection's entropy is keyed on (domain, probe label), so the
	// extra captures cannot perturb any observation above).
	if o.WeakCrypto {
		o.logf("cryptanalysis pass: capture, crack, replay (%d domains)", len(scanCore))
		if err := sp.begin("cryptanalysis", -1, len(scanCore)); err != nil {
			return nil, err
		}
		ds.Crypt = runCryptanalysis(scan, scanCore)
		if err := sp.end("cryptanalysis", -1, len(scanCore), 0, 0); err != nil {
			return nil, err
		}
		o.logf("cryptanalysis: %d/%d captured conversations decrypted (%d domains, %d bytes)",
			ds.Crypt.Yield.Connections, ds.Crypt.Yield.Attempted, ds.Crypt.Yield.Domains, ds.Crypt.Yield.Bytes)
	}
	if eng != nil {
		ds.Traffic = eng.Finalize()
		joinTraffic(ds)
		j := ds.Traffic.Join
		o.logf("traffic: %d connections, %d (%.1f%%) inside a vulnerability window",
			j.Connections.Total, j.Connections.InWindow, 100*j.Connections.Frac(j.Connections.InWindow))
	}
	ds.Dials = world.Net.DialCount()
	return ds, nil
}

// joinTraffic (re)computes the traffic plane's measured-exposure join
// against the dataset's own §6 vulnerability windows. Run after a
// campaign and again after a shard merge: a shard's join reflects only
// the windows its slice observed, so the merged join must be rebuilt
// from the merged windows (joining is pure, so the result equals the
// monolithic run's).
func joinTraffic(ds *Dataset) {
	if ds.Traffic == nil {
		return
	}
	r := BuildReport(ds)
	traffic.ComputeJoin(ds.Traffic, vulnwindow.Combine(r.Exposures))
}

// spanner emits one telemetry.Span JSONL line per scan phase, deriving
// per-phase handshake and retry counts from registry deltas, and drives
// the campaign observer's phase lifecycle. A nil *spanner no-ops, so
// Run calls begin/end unconditionally.
type spanner struct {
	w       io.Writer
	obs     CampaignObserver
	reg     *telemetry.Registry
	workers int
	days    int
	clock   simclock.Clock
	logf    func(format string, args ...interface{})

	start      time.Time // wall clock at phase start
	handshakes uint64
	retries    uint64
	busy       uint64
	prev       *telemetry.Snapshot // observer delta base, taken in begin
}

// newSpanner returns nil — phase accounting off — unless a trace or an
// observer is attached.
func newSpanner(o Options, reg *telemetry.Registry, clock simclock.Clock) *spanner {
	if o.Trace == nil && o.Observer == nil {
		return nil
	}
	workers := o.Workers
	if workers <= 0 {
		workers = 8 // scanner's pool default
	}
	return &spanner{w: o.Trace, obs: o.Observer, reg: reg, workers: workers, days: o.Days, clock: clock, logf: o.Logf}
}

// begin snapshots the counters the next end() will diff against and
// notifies the observer the phase opened. An observer error aborts the
// campaign.
func (sp *spanner) begin(phase string, day, domains int) error {
	if sp == nil {
		return nil
	}
	sp.start = time.Now()
	sp.handshakes = sp.reg.Value(telemetry.CounterHandshakesStarted)
	sp.retries = sp.reg.Value(telemetry.CounterRetries)
	sp.busy = sp.reg.Value(telemetry.CounterBusyNanos)
	if sp.obs == nil {
		return nil
	}
	sp.prev = sp.reg.Snapshot()
	return sp.obs.OnPhase(telemetry.PhaseEvent{
		Start: true,
		Span: telemetry.Span{
			Phase:       phase,
			Day:         day,
			Days:        sp.days,
			VirtualDate: sp.clock.Now().UTC().Format(time.RFC3339),
			Domains:     domains,
			Workers:     sp.workers,
		},
	})
}

// end writes the phase's span and delivers the observer's end event
// with per-phase counter deltas. Trace write errors are logged and
// swallowed — telemetry must never fail a campaign — but an observer
// error aborts it (that is the flight recorder's abort path).
func (sp *spanner) end(phase string, day, domains, failures, pairFails int) error {
	if sp == nil {
		return nil
	}
	wall := time.Since(sp.start)
	span := telemetry.Span{
		Phase:        phase,
		Day:          day,
		Days:         sp.days,
		VirtualDate:  sp.clock.Now().UTC().Format(time.RFC3339),
		Domains:      domains,
		Failures:     failures,
		PairFailures: pairFails,
		Handshakes:   sp.reg.Value(telemetry.CounterHandshakesStarted) - sp.handshakes,
		Retries:      sp.reg.Value(telemetry.CounterRetries) - sp.retries,
		WallNanos:    int64(wall),
		Workers:      sp.workers,
	}
	if wall > 0 {
		busy := sp.reg.Value(telemetry.CounterBusyNanos) - sp.busy
		span.Utilization = float64(busy) / (float64(wall) * float64(sp.workers))
	}
	if sp.w != nil {
		if err := span.Encode(sp.w); err != nil && sp.logf != nil {
			sp.logf("telemetry: trace write failed: %v", err)
		}
	}
	if sp.obs == nil {
		return nil
	}
	cur := sp.reg.Snapshot()
	ev := telemetry.PhaseEvent{
		Span:           span,
		FailureClasses: counterDeltas(sp.prev, cur, telemetry.CounterErrorPrefix),
		Faults:         counterDeltas(sp.prev, cur, telemetry.CounterFaultPrefix),
		STEKRotations:  cur.Counters[telemetry.CounterSTEKRotations] - sp.prev.Counters[telemetry.CounterSTEKRotations],
	}
	sp.prev = nil
	return sp.obs.OnPhase(ev)
}

// counterDeltas subtracts prev from cur over one counter-name prefix,
// keeping only the suffixes that moved during the phase.
func counterDeltas(prev, cur *telemetry.Snapshot, prefix string) map[string]uint64 {
	curP := cur.PrefixCounters(prefix)
	if len(curP) == 0 {
		return nil
	}
	prevP := prev.PrefixCounters(prefix)
	var out map[string]uint64
	for k, v := range curP {
		if d := v - prevP[k]; d > 0 {
			if out == nil {
				out = make(map[string]uint64)
			}
			out[k] = d
		}
	}
	return out
}

// probeFails counts lifetime probes whose initial handshake failed for a
// network reason.
func probeFails(prs []scanner.ProbeResult) int {
	n := 0
	for _, pr := range prs {
		if pr.ErrClass != faults.ClassNone {
			n++
		}
	}
	return n
}

func allByRank(w *population.World) []string {
	type dr struct {
		name string
		rank int
	}
	list := make([]dr, 0, len(w.Domains))
	for name, d := range w.Domains {
		list = append(list, dr{name, d.Rank})
	}
	sort.Slice(list, func(i, j int) bool { return list[i].rank < list[j].rank })
	out := make([]string, len(list))
	for i, d := range list {
		out[i] = d.name
	}
	return out
}

// missDay records that the domain's daily ticket scan failed on day —
// the attendance record the consistent core is derived from.
func missDay(ds *Dataset, domain string, day int) {
	if ds.MissedDays == nil {
		ds.MissedDays = make(map[string]uint64)
	}
	ds.MissedDays[domain] |= 1 << uint(day)
}

// valueID compresses a server key-exchange value to a short stable ID.
func valueID(v []byte) string {
	h := sha256.Sum256(v)
	return hex.EncodeToString(h[:8])
}

func ticketSnapshot(obs []scanner.Observation) Snapshot {
	s := Snapshot{Scanned: len(obs)}
	for _, ob := range obs {
		if !ob.OK || !ob.Trusted {
			continue
		}
		s.Trusted++
		if ob.TicketIssued {
			s.Support++
			if ob.ErrClass2 != faults.ClassNone {
				// The pair connection failed: the domain is excluded
				// from the STEK-repeat denominator, not scored as
				// "fresh key on every connection".
				s.PairFailed++
			}
		}
		if len(ob.STEKID) > 0 {
			s.Reuse2x++
		}
	}
	return s
}

func kexSnapshot(obs []scanner.Observation, kex wire.Kex) Snapshot {
	s := Snapshot{Scanned: len(obs), Trusted: len(obs)}
	for _, ob := range obs {
		if !ob.OK || ob.Kex != kex {
			continue
		}
		s.Support++
		if ob.ErrClass2 != faults.ClassNone {
			s.PairFailed++
		} else if len(ob.KEXValue) > 0 && bytes.Equal(ob.KEXValue, ob.KEXValue2) {
			s.Reuse2x++
		}
	}
	return s
}

func multiSets(uf *scanner.UnionFind) [][]string {
	var out [][]string
	for _, g := range uf.Sets() {
		if len(g) > 1 {
			out = append(out, g)
		}
	}
	return out
}

// secretGroups unions domains that were ever observed using the same
// secret ID (Table 6's STEK groups).
func secretGroups(spans Spans) [][]string {
	uf := scanner.NewUnionFind()
	first := make(map[string]string, len(spans))
	for _, r := range spans {
		if prev, ok := first[r.ID]; ok {
			uf.Union(prev, r.Domain)
		} else {
			first[r.ID] = r.Domain
		}
	}
	return multiSets(uf)
}

// dhGroups unions domains sharing a reused key-exchange value and counts
// reused values confined to one domain (Table 7's singletons). A value
// is keyed by its ID across all the tables given.
func dhGroups(tables ...Spans) ([][]string, int) {
	type value struct {
		domain string // first domain seen with the value
		shared bool   // seen on a second domain
		reused bool   // seen on two days by some domain
	}
	n := 0
	for _, spans := range tables {
		n += len(spans)
	}
	uf := scanner.NewUnionFind()
	values := make(map[string]value, n)
	for _, spans := range tables {
		for _, r := range spans {
			v, ok := values[r.ID]
			if !ok {
				v.domain = r.Domain
			} else if r.Domain != v.domain {
				uf.Union(v.domain, r.Domain)
				v.shared = true
			}
			v.reused = v.reused || bits.OnesCount64(r.Days) >= 2
			values[r.ID] = v
		}
	}
	singles := 0
	for _, v := range values {
		if !v.shared && v.reused {
			singles++
		}
	}
	return multiSets(uf), singles
}
