// Package population builds the simulated HTTPS Internet: named operator
// profiles (CloudFlare, Google, Yahoo, Netflix, SquareSpace, …) plus a
// statistical long tail, with per-domain shortcut policies calibrated so
// the study's aggregate measurements land on the paper's marginals
// (§4–§5): ~22% of domains reuse a STEK ≥7 days, ~10% ≥30 days, ECDHE
// value reuse 2–3× more common than DHE, a handful of service groups
// covering a double-digit share of the population, and combined
// vulnerability windows >24 h for roughly 40% of domains.
package population

import (
	crand "crypto/rand"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"tlsshortcuts/internal/cryptanalysis"
	"tlsshortcuts/internal/ffdh"
	"tlsshortcuts/internal/keyex"
	"tlsshortcuts/internal/par"
	"tlsshortcuts/internal/pki"
	"tlsshortcuts/internal/session"
	"tlsshortcuts/internal/simclock"
	"tlsshortcuts/internal/simnet"
	"tlsshortcuts/internal/ticket"
	"tlsshortcuts/internal/tlsserver"
)

// Options configures a world build.
type Options struct {
	ListSize int
	Seed     int64
	Clock    simclock.Clock // nil: a Manual clock at Start
	Start    time.Time      // zero: simclock.Epoch

	// WeakCrypto appends the calibrated vulnerable operator profiles
	// (weak-seed STEKs, a key name shared across unrelated operators,
	// fixed-IV sealing, an export-grade FFDH group) after the named
	// operators. Off by default: with the toggle off the build is
	// byte-identical to the baseline world, golden hash included.
	WeakCrypto bool
}

// STEKPolicy describes a terminator's ticket-key rotation.
type STEKPolicy struct {
	Static         bool
	Period         time.Duration
	AcceptPrevious int
}

// Behavior is one terminator's observable shortcut configuration.
type Behavior struct {
	Tickets       bool
	TicketFormat  ticket.Format
	STEK          STEKPolicy
	CacheLifetime time.Duration // 0: no session cache
	DHE           keyex.Policy
	ECDHE         keyex.Policy
	SupportDHE    bool
	SupportECDHE  bool
	DHEGroup      *ffdh.Group // nil: the default simulation group
}

// Terminator is one deployed backend (config plus its behavior and STEK
// manager, exposed for target-analysis scenarios).
type Terminator struct {
	Config   *tlsserver.Config
	Behavior Behavior
	Tickets  ticket.Manager
}

// Domain is one name in the simulated list.
type Domain struct {
	Name     string
	Operator string
	Rank     int
	Trusted  bool
	Terms    []*Terminator
}

// World is the built population.
type World struct {
	Opts        Options
	Clock       simclock.Clock
	Net         *simnet.Net
	Roots       *pki.RootStore
	Domains     map[string]*Domain
	ScaleFactor float64 // ListSize / 1e6
}

// TrustedCoreDomains returns the trusted, always-present domains in rank
// order — the study's measurement population.
func (w *World) TrustedCoreDomains() []string {
	var out []*Domain
	for _, d := range w.Domains {
		if d.Trusted {
			out = append(out, d)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Rank < out[j].Rank })
	names := make([]string, len(out))
	for i, d := range out {
		names[i] = d.Name
	}
	return names
}

// AllDomains returns every domain name in rank order — the site
// popularity axis workload samplers (the traffic plane's per-user visit
// model) draw from.
func (w *World) AllDomains() []string {
	out := make([]*Domain, 0, len(w.Domains))
	for _, d := range w.Domains {
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Rank < out[j].Rank })
	names := make([]string, len(out))
	for i, d := range out {
		names[i] = d.Name
	}
	return names
}

// OperatorGroups returns operator -> rank-ordered domain names for every
// operator serving more than one name: the cross-hostname pools (shared
// session caches, shared STEKs) a stateful client can be linked across.
func (w *World) OperatorGroups() map[string][]string {
	groups := make(map[string][]*Domain)
	for _, d := range w.Domains {
		if d.Operator != "" {
			groups[d.Operator] = append(groups[d.Operator], d)
		}
	}
	out := make(map[string][]string)
	for op, ds := range groups {
		if len(ds) < 2 {
			continue
		}
		sort.Slice(ds, func(i, j int) bool { return ds[i].Rank < ds[j].Rank })
		names := make([]string, len(ds))
		for i, d := range ds {
			names[i] = d.Name
		}
		out[op] = names
	}
	return out
}

// Shard returns the round-robin slice of a rank-ordered domain list
// belonging to shard index of count: the domains at positions p with
// p % count == index, in their original order. Every domain lands in
// exactly one shard, the shards' concatenation is a permutation of the
// input, and round-robin keeps each shard's rank distribution — and so
// its operator mix and scan cost — representative of the whole list.
func Shard(list []string, index, count int) []string {
	if count <= 1 {
		return list
	}
	out := make([]string, 0, (len(list)+count-1)/count)
	for p := index; p < len(list); p += count {
		out = append(out, list[p])
	}
	return out
}

// profile is one named operator's deployment template.
type profile struct {
	op    string
	frac  float64
	fixed []string
	b     Behavior
	hint  time.Duration
	// chunk is the max domains per backend cert/terminator.
	chunk int

	// Weak-crypto knobs (only set by weakProfiles):
	stekSeed string      // explicit STEK seed (shared or low-entropy); "" = derived from op|seed
	weakIV   bool        // fixed-IV CBC sealing (AWS-flaw style); static STEKs only
	dheGroup *ffdh.Group // FFDH group override (export-grade shared prime)
}

// profiles is the calibrated operator table. Order fixes rank order.
func profiles() []profile {
	day := 24 * time.Hour
	return []profile{
		{op: "google", frac: 0.025, fixed: []string{"google.com", "blogspot.com", "youtube.com"},
			b: Behavior{Tickets: true, STEK: STEKPolicy{Period: 14 * time.Hour, AcceptPrevious: 1},
				CacheLifetime: 28 * time.Hour, SupportDHE: true, SupportECDHE: true}, hint: 28 * time.Hour},
		{op: "yahoo", frac: 0.004, fixed: []string{"yahoo.com", "tumblr.com"},
			b: Behavior{Tickets: true, STEK: STEKPolicy{Static: true},
				CacheLifetime: 10 * time.Minute, SupportDHE: true, SupportECDHE: true}},
		{op: "qq", frac: 0.002, fixed: []string{"qq.com"},
			b: Behavior{Tickets: true, STEK: STEKPolicy{Static: true}, SupportDHE: true, SupportECDHE: true}},
		{op: "tmall", frac: 0.006, fixed: []string{"taobao.com", "tmall.com"},
			b: Behavior{Tickets: true, STEK: STEKPolicy{Static: true}, SupportECDHE: true}},
		{op: "cloudflare", frac: 0.18, fixed: []string{"cloudflare.com"},
			b: Behavior{Tickets: true, STEK: STEKPolicy{Period: 18 * time.Hour},
				CacheLifetime: 18 * time.Hour, SupportECDHE: true}, hint: 18 * time.Hour, chunk: 64},
		{op: "netflix", frac: 0.002, fixed: []string{"netflix.com"},
			b: Behavior{Tickets: true, STEK: STEKPolicy{Static: true}, SupportDHE: true, SupportECDHE: true,
				DHE:   keyex.Policy{Mode: keyex.Reuse, Period: 60 * day},
				ECDHE: keyex.Policy{Mode: keyex.Reuse, Period: 60 * day}}},
		{op: "whatsapp", frac: 0.002, fixed: []string{"whatsapp.com"},
			b: Behavior{Tickets: true, STEK: STEKPolicy{Period: day}, SupportECDHE: true,
				ECDHE: keyex.Policy{Mode: keyex.Reuse, Period: 62 * day}}},
		{op: "pinterest", frac: 0.002, fixed: []string{"pinterest.com"},
			b: Behavior{Tickets: true, STEK: STEKPolicy{Static: true}, SupportECDHE: true}},
		{op: "cbssports", frac: 0.001, fixed: []string{"cbssports.com"},
			b: Behavior{Tickets: true, STEK: STEKPolicy{Period: day}, SupportDHE: true,
				DHE: keyex.Policy{Mode: keyex.Reuse, Period: 60 * day}}},
		{op: "cookpad", frac: 0.001, fixed: []string{"cookpad.com"},
			b: Behavior{Tickets: true, STEK: STEKPolicy{Period: day}, SupportDHE: true, SupportECDHE: true,
				DHE: keyex.Policy{Mode: keyex.Reuse, Period: 63 * day}}},
		{op: "woot", frac: 0.001, fixed: []string{"woot.com"},
			b: Behavior{Tickets: true, STEK: STEKPolicy{Period: day}, SupportECDHE: true,
				ECDHE: keyex.Policy{Mode: keyex.Reuse, Period: 62 * day}}},
		{op: "automattic", frac: 0.012, fixed: []string{"wordpress.com"},
			b: Behavior{Tickets: true, STEK: STEKPolicy{Period: day},
				CacheLifetime: 6 * time.Hour, SupportDHE: true, SupportECDHE: true}, chunk: 64},
		{op: "fastly", frac: 0.007, fixed: []string{"fastly.net"},
			b: Behavior{Tickets: true, STEK: STEKPolicy{Period: 35 * day}, SupportECDHE: true}, chunk: 64},
		{op: "shopify", frac: 0.008, fixed: []string{"shopify.com"},
			b: Behavior{Tickets: true, STEK: STEKPolicy{Period: day},
				CacheLifetime: 12 * time.Hour, SupportECDHE: true}, chunk: 64},
		{op: "squarespace", frac: 0.016, fixed: []string{"squarespace.com"},
			b: Behavior{CacheLifetime: 5 * time.Minute, SupportECDHE: true,
				ECDHE: keyex.Policy{Mode: keyex.Reuse, Period: 60 * day}}, chunk: 64},
		{op: "livejournal", frac: 0.013, fixed: []string{"livejournal.com"},
			b: Behavior{CacheLifetime: 5 * time.Minute, SupportECDHE: true,
				ECDHE: keyex.Policy{Mode: keyex.Reuse, Period: 17 * day}}, chunk: 64},
		{op: "affinity", frac: 0.004, fixed: []string{"affinity.net"},
			b: Behavior{SupportECDHE: true,
				ECDHE: keyex.Policy{Mode: keyex.Reuse, Period: 62 * day}}},
		{op: "jimdo", frac: 0.004, fixed: []string{"jimdo.com"},
			b: Behavior{SupportECDHE: true,
				ECDHE: keyex.Policy{Mode: keyex.Reuse, Period: 19 * day}}},
		{op: "jackhenry", frac: 0.008, fixed: []string{"jackhenry.com"},
			b: Behavior{Tickets: true, STEK: STEKPolicy{Static: true}, SupportECDHE: true}, chunk: 32},
		{op: "yandex", frac: 0.005, fixed: []string{"yandex.ru"},
			b: Behavior{Tickets: true, STEK: STEKPolicy{Period: 12 * day},
				CacheLifetime: time.Hour, SupportDHE: true, SupportECDHE: true}},
	}
}

// weakProfiles is the vulnerable-deployment table appended behind
// Options.WeakCrypto, calibrated to Hebrok et al.'s measurements: the
// STEK-crackable operators (weak seed, shared vendor-default key,
// fixed-IV sealing) together cover ~1.9% of the population — the
// fraction whose recorded traffic they passively decrypted on the
// Tranco 100k — plus an export-grade FFDH block for the Logjam
// common-prime amortization.
func weakProfiles() []profile {
	// weakseed-cdn and sharedname-host ship the *same* weak key — a
	// vendor default config deployed by unrelated operators — so the
	// key-name-reuse probe groups them and a single dictionary crack
	// decrypts both.
	shared := string(cryptanalysis.WeakSeed(17))
	return []profile{
		{op: "weakseed-cdn", frac: 0.007, fixed: []string{"weakseed-cdn.example"},
			b:        Behavior{Tickets: true, STEK: STEKPolicy{Static: true}, SupportECDHE: true},
			stekSeed: shared},
		{op: "sharedname-host", frac: 0.005, fixed: []string{"sharedname-host.example"},
			b:        Behavior{Tickets: true, STEK: STEKPolicy{Static: true}, SupportDHE: true, SupportECDHE: true},
			stekSeed: shared},
		// Fixed-IV CBC sealing in the 4-byte-name mbedTLS format: every
		// reissue of the same state is byte-identical on the wire — the
		// AWS keystream-reuse signature.
		{op: "fixediv-cloud", frac: 0.007, fixed: []string{"fixediv-cloud.example"},
			b:        Behavior{Tickets: true, TicketFormat: ticket.FormatMbedTLS, STEK: STEKPolicy{Static: true}, SupportECDHE: true},
			stekSeed: string(cryptanalysis.WeakSeed(99)), weakIV: true},
		// DHE-only legacy block serving the shared export-grade prime.
		{op: "exportdh-legacy", frac: 0.004, fixed: []string{"exportdh-legacy.example"},
			b:        Behavior{SupportDHE: true, DHEGroup: ffdh.ExportGroup512()},
			dheGroup: ffdh.ExportGroup512()},
	}
}

// Build constructs the world.
func Build(o Options) (*World, error) {
	if o.ListSize < 50 {
		return nil, fmt.Errorf("population: ListSize %d too small (need >= 50)", o.ListSize)
	}
	start := o.Start
	if start.IsZero() {
		start = simclock.Epoch
	}
	clock := o.Clock
	if clock == nil {
		clock = simclock.NewManual(start)
	}
	rng := rand.New(rand.NewSource(o.Seed ^ 0x7515))

	root, err := pki.NewRootCA("Sim Trust Root", pki.ECDSAP256, crand.Reader)
	if err != nil {
		return nil, err
	}
	badRoot, err := pki.NewRootCA("Shady CA", pki.ECDSAP256, crand.Reader)
	if err != nil {
		return nil, err
	}
	w := &World{
		Opts:        o,
		Clock:       clock,
		Net:         simnet.New(),
		Roots:       pki.NewRootStore(root),
		Domains:     make(map[string]*Domain),
		ScaleFactor: float64(o.ListSize) / 1e6,
	}
	bld := &builder{w: w, rng: rng, root: root, badRoot: badRoot, start: start, notAfter: start.AddDate(2, 0, 0)}

	ps := profiles()
	if o.WeakCrypto {
		// Appended after the named operators: the weak blocks take ranks
		// before the tail, so they are trusted, always-present, and
		// scanned daily like any named operator.
		ps = append(ps, weakProfiles()...)
	}
	rank := 1
	for _, p := range ps {
		count := int(p.frac*float64(o.ListSize) + 0.5)
		if count < len(p.fixed) {
			count = len(p.fixed)
		}
		names := append([]string(nil), p.fixed...)
		for i := len(names); i < count; i++ {
			names = append(names, fmt.Sprintf("%s-site-%04d.example", p.op, i))
		}
		bld.operatorBlock(p, names, &rank)
	}
	bld.tail(o.ListSize-len(w.Domains), &rank)
	if err := bld.issueLeaves(); err != nil {
		return nil, err
	}
	return w, nil
}

type builder struct {
	w        *World
	rng      *rand.Rand
	root     *pki.RootCA
	badRoot  *pki.RootCA
	start    time.Time
	notAfter time.Time
	asSeq    int
	leaves   []leafReq
}

// leafReq is one leaf certificate the sequential pass deferred: its
// issuer, the names it covers, and the configs that will serve it.
type leafReq struct {
	issuer *pki.RootCA
	names  []string
	cfgs   []*tlsserver.Config
}

// issueLeaves issues every deferred leaf on all CPUs and hands each to
// its configs, returning the lowest-index error. Leaf keys and
// signatures draw from crypto/rand, never from the seeded rng, so
// certificate bytes already differ from run to run; issuing them in
// parallel moves no recorded byte. Only the order of the issuers' serial
// numbers follows the schedule.
func (b *builder) issueLeaves() error {
	errs := make([]error, len(b.leaves))
	par.ForEach(runtime.GOMAXPROCS(0), len(b.leaves), func(_, i int) {
		l := &b.leaves[i]
		cert, err := l.issuer.IssueLeaf(l.names, pki.ECDSAP256, b.start.AddDate(0, -2, 0), b.notAfter, crand.Reader)
		if err != nil {
			errs[i] = err
			return
		}
		b.w.Roots.AddLeaf(cert)
		for _, cfg := range l.cfgs {
			cfg.DefaultCert = cert
		}
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func (b *builder) manager(p STEKPolicy, format ticket.Format, seed string) ticket.Manager {
	if p.Static {
		return ticket.NewStatic([]byte(seed), format)
	}
	if p.Period <= 0 {
		return nil
	}
	return &ticket.Rotating{Seed: []byte(seed), Base: b.start, Period: p.Period,
		AcceptPrevious: p.AcceptPrevious, Format: format}
}

// config assembles a terminator Config from a behavior. Its DefaultCert
// is set by issueLeaves.
func (b *builder) config(beh Behavior, mgr ticket.Manager, cache *session.Cache,
	hint time.Duration, kexSeed string) *tlsserver.Config {
	cfg := &tlsserver.Config{
		Clock:        b.w.Clock,
		Cache:        cache,
		DisableDHE:   !beh.SupportDHE,
		DisableECDHE: !beh.SupportECDHE,
		TicketHint:   hint,
		// Deterministic per-connection server entropy (the client random
		// salts each stream), so a campaign replays byte-identically.
		RandSeed: []byte("rand:" + kexSeed),
		DHEGroup: beh.DHEGroup,
	}
	if beh.Tickets {
		cfg.Tickets = mgr
	}
	if beh.DHE.Mode == keyex.Reuse {
		pol := beh.DHE
		pol.Base = b.start
		pol.Seed = []byte("dhe:" + kexSeed)
		cfg.DHEPolicy = &pol
	}
	if beh.ECDHE.Mode == keyex.Reuse {
		pol := beh.ECDHE
		pol.Base = b.start
		pol.Seed = []byte("ecdhe:" + kexSeed)
		cfg.ECDHEPolicy = &pol
	}
	return cfg
}

// operatorBlock deploys one named operator: shared STEK manager, shared
// session cache, shared KEX seeds, domains spread over chunked backends.
func (b *builder) operatorBlock(p profile, names []string, rank *int) {
	seedTag := fmt.Sprintf("%s|%d", p.op, b.w.Opts.Seed)
	stekSeed := "stek:" + seedTag
	if p.stekSeed != "" {
		// Weak profile: the seed is NOT folded with the study seed — a
		// low-entropy deployment key is guessable precisely because it
		// does not depend on per-install entropy.
		stekSeed = p.stekSeed
	}
	var mgr ticket.Manager
	if p.weakIV {
		k := ticket.Derive([]byte(stekSeed), p.b.TicketFormat)
		k.WeakIV = true
		mgr = ticket.NewStaticFromKey(k)
	} else {
		mgr = b.manager(p.b.STEK, p.b.TicketFormat, stekSeed)
	}
	var cache *session.Cache
	if p.b.CacheLifetime > 0 {
		cache = session.NewCache(p.b.CacheLifetime)
	}
	hint := p.hint
	if hint == 0 {
		hint = 2 * time.Hour
	}
	chunk := p.chunk
	if chunk <= 0 {
		chunk = 128
	}
	as := b.nextAS()
	for i := 0; i < len(names); i += chunk {
		j := i + chunk
		if j > len(names) {
			j = len(names)
		}
		block := names[i:j]
		cfg := b.config(p.b, mgr, cache, hint, seedTag)
		b.leaves = append(b.leaves, leafReq{issuer: b.root, names: block, cfgs: []*tlsserver.Config{cfg}})
		term := &Terminator{Config: cfg, Behavior: p.b, Tickets: mgr}
		ip := fmt.Sprintf("%s-ip-%d", p.op, i/chunk)
		for _, name := range block {
			b.w.Domains[name] = &Domain{Name: name, Operator: p.op, Rank: *rank, Trusted: true, Terms: []*Terminator{term}}
			*rank++
			b.w.Net.Register(name, as, []string{ip}, &simnet.Endpoint{Config: cfg})
		}
	}
}

func (b *builder) nextAS() int {
	b.asSeq++
	return b.asSeq
}

// tail deploys the long tail: independently sampled per-domain policies,
// small shared-cache co-lo cliques, and the untrusted fringe.
func (b *builder) tail(count int, rank *int) {
	day := 24 * time.Hour
	var as int
	inAS := 0
	cliqueLeft := 0
	var cliqueCache *session.Cache
	var cliqueOp string
	cliqueSeq := 0
	for i := 0; i < count; i++ {
		if inAS == 0 {
			as = b.nextAS()
			inAS = 50
		}
		inAS--
		name := fmt.Sprintf("site-%06d.example", i)
		trusted := b.rng.Float64() >= 0.08
		beh := b.sampleTailBehavior(day)

		// ~3% of the tail sits in small shared-cache co-lo cliques —
		// the only cross-domain cache groups the 5+5 probe budget has
		// to hunt for.
		var cache *session.Cache
		op := name
		if cliqueLeft > 0 {
			cliqueLeft--
			cache = cliqueCache
			op = cliqueOp
			beh.CacheLifetime = cliqueCache.Lifetime
		} else if trusted && b.rng.Float64() < 0.015 {
			cliqueSeq++
			cliqueOp = fmt.Sprintf("hostco-%03d", cliqueSeq)
			cliqueCache = session.NewCache(30 * time.Minute)
			cliqueLeft = 1 + b.rng.Intn(2) // 1-2 more members
			cache = cliqueCache
			op = cliqueOp
			beh.CacheLifetime = cliqueCache.Lifetime
		} else if beh.CacheLifetime > 0 {
			cache = session.NewCache(beh.CacheLifetime)
		}

		issuer := b.root
		if !trusted {
			issuer = b.badRoot
		}

		// A-record jitter: long-lived-STEK tail domains run two
		// balancer backends with independent process-lifetime keys, so
		// daily scans see each key on a random subset of days.
		backends := 1
		if beh.Tickets && beh.STEK.Static && b.rng.Float64() < 0.5 {
			backends = 2
		}
		leaf := leafReq{issuer: issuer, names: []string{name}}
		var terms []*Terminator
		var eps []*simnet.Endpoint
		for k := 0; k < backends; k++ {
			seedTag := fmt.Sprintf("%s|%d|%d", name, b.w.Opts.Seed, k)
			mgr := b.manager(beh.STEK, beh.TicketFormat, "stek:"+seedTag)
			cfg := b.config(beh, mgr, cache, 2*time.Hour, fmt.Sprintf("%s|%d", name, b.w.Opts.Seed))
			leaf.cfgs = append(leaf.cfgs, cfg)
			terms = append(terms, &Terminator{Config: cfg, Behavior: beh, Tickets: mgr})
			eps = append(eps, &simnet.Endpoint{Config: cfg})
		}
		b.leaves = append(b.leaves, leaf)
		b.w.Domains[name] = &Domain{Name: name, Operator: op, Rank: *rank, Trusted: trusted, Terms: terms}
		*rank++
		b.w.Net.Register(name, as, []string{"ip-" + name}, eps...)
	}
}

// sampleTailBehavior draws one long-tail domain's policies, calibrated to
// the global marginals (see package comment).
func (b *builder) sampleTailBehavior(day time.Duration) Behavior {
	beh := Behavior{}
	// Cipher support: 86% ECDHE; everyone else at least DHE; 55% of
	// ECDHE deployments also enable DHE.
	if b.rng.Float64() < 0.86 {
		beh.SupportECDHE = true
		beh.SupportDHE = b.rng.Float64() < 0.55
	} else {
		beh.SupportDHE = true
	}
	// STEK policy buckets (fractions of the tail; see package comment).
	r := b.rng.Float64()
	switch {
	case r < 0.285: // no tickets
	case r < 0.387: // static, never rotated
		beh.Tickets = true
		beh.STEK = STEKPolicy{Static: true}
	case r < 0.557: // long rotation, 10-20 days
		beh.Tickets = true
		beh.STEK = STEKPolicy{Period: time.Duration(10+b.rng.Intn(11)) * day}
	case r < 0.793: // short rotation, 2-5 days
		beh.Tickets = true
		beh.STEK = STEKPolicy{Period: time.Duration(2+b.rng.Intn(4)) * day}
	default: // daily rotation
		beh.Tickets = true
		beh.STEK = STEKPolicy{Period: day}
	}
	if beh.Tickets {
		switch f := b.rng.Float64(); {
		case beh.STEK.Static && f < 0.3:
			beh.TicketFormat = ticket.FormatSChannel
		case f < 0.5:
			beh.TicketFormat = ticket.FormatMbedTLS
		default:
			beh.TicketFormat = ticket.FormatRFC5077
		}
	}
	// Session caches: 80% run one; lifetimes 5 min / 1 h / 10 h / 24 h.
	if b.rng.Float64() < 0.80 {
		switch r := b.rng.Float64(); {
		case r < 0.50:
			beh.CacheLifetime = 5 * time.Minute
		case r < 0.75:
			beh.CacheLifetime = time.Hour
		case r < 0.90:
			beh.CacheLifetime = 10 * time.Hour
		default:
			beh.CacheLifetime = 24 * time.Hour
		}
	}
	// KEX value reuse: a sprinkle on top of the named reusers.
	if beh.SupportDHE && b.rng.Float64() < 0.005 {
		beh.DHE = keyex.Policy{Mode: keyex.Reuse, Period: b.reusePeriod(day)}
	}
	if beh.SupportECDHE && b.rng.Float64() < 0.005 {
		beh.ECDHE = keyex.Policy{Mode: keyex.Reuse, Period: b.reusePeriod(day)}
	}
	return beh
}

func (b *builder) reusePeriod(day time.Duration) time.Duration {
	switch r := b.rng.Float64(); {
	case r < 0.3:
		return 3 * day
	case r < 0.8:
		return 12 * day
	default:
		return 45 * day
	}
}
