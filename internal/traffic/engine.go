package traffic

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"tlsshortcuts/internal/drbg"
	"tlsshortcuts/internal/faults"
	"tlsshortcuts/internal/par"
	"tlsshortcuts/internal/population"
	"tlsshortcuts/internal/session"
	"tlsshortcuts/internal/simclock"
	"tlsshortcuts/internal/simnet"
	"tlsshortcuts/internal/telemetry"
	"tlsshortcuts/internal/tlsclient"
)

// chain is one resumption tracking lineage: the unbroken sequence of
// connections an operator could link through offered session state. It
// is reference-counted by the client store entries that can extend it —
// cross-hostname resumption makes one chain reachable from several
// hostnames' entries — and its statistics are recorded exactly once,
// when the last reference drops.
type chain struct {
	refs    int
	n       uint64        // linked connections
	start   time.Time     // first connection (virtual)
	last    time.Time     // latest linked connection (virtual)
	cross   bool          // spanned more than one hostname
	effLife time.Duration // effective lifetime of the newest session
}

// stored is one client-store entry: the resumable session held for a
// hostname, its effective lifetime (policy lifetime capped by the
// server's ticket hint), and the chain it would extend.
type stored struct {
	sess    *tlsclient.Session
	effLife time.Duration
	ch      *chain
}

// userState is one simulated user: sampled profile plus the browser
// session store. The session.Cache (policy lifetime + LRU capacity) is
// the liveness authority; the sess map carries the resumable payloads
// and chain links, reconciled lazily — an entry whose cache slot is
// gone (expired or evicted) is dropped on next touch.
type userState struct {
	id    int
	prof  profile
	cache *session.Cache
	sess  map[string]*stored
}

// liveMarker is the shared cache payload: the traffic plane only uses
// the server-side cache type for its lifetime/LRU bookkeeping, the
// actual session lives in the sess map.
var liveMarker = &session.State{}

// arena is one worker's reusable scratch: the Line its visits dial,
// DRBG, capture, config, and request buffer, so steady-state visits
// allocate only session and handshake state.
type arena struct {
	line simnet.Line
	rng  drbg.Reader
	cap  tlsclient.Capture
	cfg  tlsclient.Config
	req  []byte
}

// maxReqPad is the spread of per-visit request sizes ([64, 64+maxReqPad)).
const maxReqPad = 1400

// Engine drives a user population's visits against the simulated
// network in virtual-time lockstep: a traffic day is 24 hour slots, the
// shared campaign clock is set to each slot's instant, the slot's users
// run to completion (the inter-slot barrier), and after the last slot
// the clock is restored to the day start so the surrounding scan
// campaign observes identical virtual instants whether or not traffic
// ran.
type Engine struct {
	opts        Options
	seed        []byte
	world       *population.World
	clock       *simclock.Manual
	dialer      Dialer
	reg         *telemetry.Registry
	policies    []Policy
	totalWeight float64

	domains  []string           // all domains, rank order
	domOp    []string           // operator per domain index ("" = none)
	opGroups map[string][]int32 // operator -> member domain indices (len > 1)

	users   []*userState // this shard's users, ascending user id
	scheds  [][]visit    // per-user schedule scratch, reused across days
	nworker int
	arenas  []*arena
	tallies [][]PolicyStats // [worker][policy]
	days    int             // traffic days run

	// cached counter/histogram handles (hot path)
	ctrVisits, ctrResumed, ctrFailures, ctrBytes, ctrCross *telemetry.Counter
	ctrHSStart, ctrHSDone, ctrBusy                         *telemetry.Counter
	polVisits, polResumed                                  []*telemetry.Counter
	chainHist                                              []*telemetry.Histogram
	sessions                                               session.Counters // the users' session stores
	client                                                 *tlsclient.Counters
}

// NewEngine builds the traffic plane over an existing world. The
// registry must be non-nil: traffic progress is part of the campaign's
// observability surface.
func NewEngine(world *population.World, opts Options, reg *telemetry.Registry) (*Engine, error) {
	if opts.Users <= 0 {
		return nil, errors.New("traffic: Users must be positive")
	}
	if reg == nil {
		return nil, errors.New("traffic: registry must not be nil")
	}
	clock, ok := world.Clock.(*simclock.Manual)
	if !ok {
		return nil, errors.New("traffic: world clock must be a manual clock")
	}
	pols := opts.policies()
	var total float64
	seen := map[string]bool{}
	for i := range pols {
		p := &pols[i]
		if p.Name == "" || seen[p.Name] {
			return nil, fmt.Errorf("traffic: policy %d has empty or duplicate name", i)
		}
		seen[p.Name] = true
		if p.Lifetime <= 0 || p.Weight <= 0 {
			return nil, fmt.Errorf("traffic: policy %q needs positive lifetime and weight", p.Name)
		}
		total += p.Weight
	}
	e := &Engine{
		opts:        opts,
		seed:        []byte(fmt.Sprintf("traffic|%d", opts.Seed)),
		world:       world,
		clock:       clock,
		dialer:      world.Net,
		reg:         reg,
		policies:    pols,
		totalWeight: total,
		domains:     world.AllDomains(),
		nworker:     opts.workers(),
	}

	idx := make(map[string]int32, len(e.domains))
	for i, d := range e.domains {
		idx[d] = int32(i)
	}
	e.domOp = make([]string, len(e.domains))
	e.opGroups = make(map[string][]int32)
	for op, names := range world.OperatorGroups() {
		members := make([]int32, len(names))
		for i, n := range names {
			members[i] = idx[n]
			e.domOp[idx[n]] = op
		}
		e.opGroups[op] = members
	}

	for u := 0; u < opts.Users; u++ {
		if opts.ShardCount > 1 && u%opts.ShardCount != opts.ShardIndex {
			continue
		}
		prof := e.userProfile(u)
		pol := &e.policies[prof.policy]
		e.users = append(e.users, &userState{
			id:    u,
			prof:  prof,
			cache: session.NewBoundedCache(pol.Lifetime, pol.CacheCap),
			sess:  make(map[string]*stored),
		})
	}
	e.scheds = make([][]visit, len(e.users))

	e.arenas = make([]*arena, e.nworker)
	e.tallies = make([][]PolicyStats, e.nworker)
	for w := 0; w < e.nworker; w++ {
		ar := &arena{req: make([]byte, 64+maxReqPad)}
		// Static request payload; only the per-visit length is drawn.
		tmp := drbg.NewString("traffic", "reqpad")
		tmp.Read(ar.req)
		e.arenas[w] = ar
		e.tallies[w] = make([]PolicyStats, len(e.policies))
	}

	e.ctrVisits = reg.Counter(telemetry.CounterTrafficVisits)
	e.ctrResumed = reg.Counter(telemetry.CounterTrafficResumed)
	e.ctrFailures = reg.Counter(telemetry.CounterTrafficFailures)
	e.ctrBytes = reg.Counter(telemetry.CounterTrafficBytes)
	e.ctrCross = reg.Counter(telemetry.CounterTrafficCrossHost)
	e.ctrHSStart = reg.Counter(telemetry.CounterHandshakesStarted)
	e.ctrHSDone = reg.Counter(telemetry.CounterHandshakesCompleted)
	e.ctrBusy = reg.Counter(telemetry.CounterBusyNanos)
	e.sessions = session.NewCounters(reg)
	e.client = tlsclient.NewCounters(reg)
	for i := range e.policies {
		name := e.policies[i].Name
		e.polVisits = append(e.polVisits, reg.Counter(telemetry.CounterTrafficPolicyPrefix+name+"/visits"))
		e.polResumed = append(e.polResumed, reg.Counter(telemetry.CounterTrafficPolicyPrefix+name+"/resumed"))
		e.chainHist = append(e.chainHist, reg.Histogram(telemetry.HistTrafficChainPrefix+name))
	}
	return e, nil
}

// RunDay runs one traffic day starting at the clock's current instant
// (the scan day's start). It returns scheduled visits and failed
// connections, and leaves the clock back at the day start.
func (e *Engine) RunDay(day int) (visits, fails int) {
	dayStart := e.clock.Now()

	// Draw every user's schedule for the day (pure per-user function).
	par.ForEach(e.nworker, len(e.users), func(w, i int) {
		us := e.users[i]
		e.scheds[i] = e.daySchedule(us.id, &us.prof, day, e.scheds[i][:0])
	})

	// Bucket each user's slot-sorted schedule into per-hour work items.
	type slotItem struct{ ui, lo, hi int32 }
	var slots [24][]slotItem
	for ui := range e.users {
		sched := e.scheds[ui]
		visits += len(sched)
		for lo := 0; lo < len(sched); {
			hi := lo
			s := sched[lo].slot
			for hi < len(sched) && sched[hi].slot == s {
				hi++
			}
			slots[s] = append(slots[s], slotItem{int32(ui), int32(lo), int32(hi)})
			lo = hi
		}
	}

	failed := make([]int, e.nworker)
	for s := 0; s < 24; s++ {
		items := slots[s]
		if len(items) == 0 {
			continue
		}
		now := dayStart.Add(time.Duration(s) * time.Hour)
		// Lockstep: every connection of this slot — client and server
		// side — observes the slot's instant; the pool is the barrier
		// before the next slot moves the shared clock. Longest items go
		// first, so the barrier waits on a short one. Items land only in
		// additive per-worker tallies, so their order never shows.
		slices.SortStableFunc(items, func(a, b slotItem) int {
			return int((b.hi - b.lo) - (a.hi - a.lo))
		})
		e.clock.Set(now)
		par.ForEach(e.nworker, len(items), func(w, i int) {
			it := items[i]
			us := e.users[it.ui]
			sched := e.scheds[it.ui]
			for k := it.lo; k < it.hi; k++ {
				if !e.doVisit(w, us, day, s, int(k), sched[k], now) {
					failed[w]++
				}
			}
		})
	}
	// Restore the day-start instant so the rest of the campaign runs at
	// the same virtual times as a traffic-off run.
	e.clock.Set(dayStart)
	e.days++
	for _, f := range failed {
		fails += f
	}
	return visits, fails
}

// liveSession returns the user's live store entry for domain d, lazily
// dropping it (and releasing its chain reference) if the cache slot
// expired or was LRU-evicted, or the session outlived its effective
// lifetime.
func (e *Engine) liveSession(us *userState, d string, now time.Time, pt *PolicyStats) *stored {
	st := us.sess[d]
	if st == nil {
		return nil
	}
	if e.sessions.Get(us.cache, []byte(d), now) == nil || now.Sub(st.sess.CreatedAt) > st.effLife {
		delete(us.sess, d)
		pt.Dropped++
		e.releaseChain(us, st.ch, pt)
		return nil
	}
	return st
}

// liveSibling finds a live session stored for another hostname of the
// destination's operator, in rank order (deterministic).
func (e *Engine) liveSibling(us *userState, dom int32, now time.Time, pt *PolicyStats) (string, *stored) {
	op := e.domOp[dom]
	if op == "" {
		return "", nil
	}
	for _, di := range e.opGroups[op] {
		if di == dom {
			continue
		}
		sd := e.domains[di]
		if us.sess[sd] == nil {
			continue
		}
		if st := e.liveSession(us, sd, now, pt); st != nil {
			return sd, st
		}
	}
	return "", nil
}

// releaseChain drops one reference; the last drop records the chain.
func (e *Engine) releaseChain(us *userState, ch *chain, pt *PolicyStats) {
	ch.refs--
	if ch.refs > 0 {
		return
	}
	e.closeChain(us.prof.policy, ch, pt)
}

// closeChain records a finished tracking chain into pt.
func (e *Engine) closeChain(policy int, ch *chain, pt *PolicyStats) {
	pt.Chains++
	if ch.cross {
		pt.CrossChains++
	}
	pt.ChainLen[chainLenBucket(ch.n)]++
	track := ch.last.Sub(ch.start)
	pt.ChainDur[chainDurBucket(track)]++
	pt.TrackSeconds += uint64(track / time.Second)
	unlink := track + ch.effLife
	pt.UnlinkSeconds += uint64(unlink / time.Second)
	if ch.n > pt.MaxChainLen {
		pt.MaxChainLen = ch.n
	}
	if u := uint64(unlink / time.Second); u > pt.MaxUnlinkSeconds {
		pt.MaxUnlinkSeconds = u
	}
	e.chainHist[policy].Observe(track)
}

// storePut stores sess for domain d, wiring the chain reference counts:
// replacing an entry of a different lineage releases the old one.
func (e *Engine) storePut(us *userState, d string, sess *tlsclient.Session, effLife time.Duration, ch *chain, now time.Time, pt *PolicyStats) {
	if old := us.sess[d]; old != nil && old.ch != ch {
		e.releaseChain(us, old.ch, pt)
	} else if old != nil {
		ch.refs-- // same lineage: the replaced entry's reference carries over
	}
	ch.refs++
	us.sess[d] = &stored{sess: sess, effLife: effLife, ch: ch}
	e.sessions.Put(us.cache, []byte(d), liveMarker, now)
}

// doVisit runs one scheduled visit: resolve the offered session, dial
// the stable path, handshake with per-visit deterministic entropy,
// account the outcome, and update the user's store and chains. Reports
// whether the connection completed.
func (e *Engine) doVisit(w int, us *userState, day, slot, k int, v visit, now time.Time) bool {
	d := e.domains[v.dom]
	pol := &e.policies[us.prof.policy]
	pt := &e.tallies[w][us.prof.policy]
	label := fmt.Sprintf("tr|u%d|d%d|s%d|%d", us.id, day, slot, k)

	var resume *tlsclient.Session
	viaTicket := false
	fromDomain := ""
	var fromChain *chain
	if st := e.liveSession(us, d, now, pt); st != nil {
		resume, fromDomain, fromChain = st.sess, d, st.ch
		viaTicket = len(st.sess.Ticket) > 0
	} else if v.cross {
		if sd, st := e.liveSibling(us, v.dom, now, pt); st != nil {
			resume, fromDomain, fromChain = st.sess, sd, st.ch
			// Cross-host, prefer the session ID: shared caches are the
			// cross-domain channel §5 measures; fall back to the ticket
			// (accepted only where the operator shares STEKs).
			viaTicket = len(st.sess.ID) == 0
		}
	}

	ar := e.arenas[w]
	ar.rng.ReseedParts(e.seed, d, label)
	req := ar.req[:64+int(rndU64(&ar.rng)%maxReqPad)]
	cfg := &ar.cfg
	*cfg = tlsclient.Config{
		ServerName:      d,
		Clock:           simclock.Fixed(now),
		Roots:           e.world.Roots,
		OfferTicket:     true,
		Resume:          resume,
		ResumeViaTicket: viaTicket,
		AppData:         req,
		Rand:            &ar.rng,
		ReuseKex:        true,
		Telemetry:       e.client,
	}

	start := time.Now()
	e.ctrVisits.Inc()
	e.polVisits[us.prof.policy].Inc()
	e.ctrHSStart.Inc()
	conn, err := e.dialer.DialProbeStableInto(&ar.line, d, label)
	if err == nil {
		conn.SetDeadline(time.Now().Add(e.opts.timeout()))
		err = tlsclient.HandshakeInto(&ar.cap, conn, cfg)
		conn.Close()
	}
	e.ctrBusy.Add(uint64(time.Since(start)))
	if err != nil {
		// A failed visit leaves the user's session state untouched: the
		// stored session stays offered on the next visit.
		pt.Failed++
		e.ctrFailures.Inc()
		e.reg.Counter(telemetry.CounterErrorPrefix + string(faults.Classify(err))).Inc()
		return false
	}
	e.ctrHSDone.Inc()

	cp := &ar.cap
	n := uint64(len(req) + len(cp.AppResp))
	pt.Conns++
	pt.Bytes += n
	e.ctrBytes.Add(n)
	if pt.Domains == nil {
		pt.Domains = make(map[string]DomainTally)
	}
	dt := pt.Domains[d]
	dt.Conns++
	dt.Bytes += n
	pt.Domains[d] = dt

	effLife := pol.Lifetime
	if cp.LifetimeHint > 0 && cp.LifetimeHint < effLife {
		effLife = cp.LifetimeHint
	}
	var ch *chain
	if cp.Resumed {
		pt.Resumed++
		e.ctrResumed.Inc()
		e.polResumed[us.prof.policy].Inc()
		if cp.ResumedViaTicket {
			pt.ResumedTicket++
		} else {
			pt.ResumedID++
		}
		ch = fromChain
		ch.n++
		ch.last = now
		ch.effLife = effLife
		if fromDomain != d {
			ch.cross = true
			pt.CrossHostResumes++
			e.ctrCross.Inc()
		}
	} else {
		pt.Full++
		ch = &chain{n: 1, start: now, last: now, effLife: effLife}
	}

	sess := cp.Session
	if sess != nil && (len(sess.Ticket) > 0 || len(sess.ID) > 0) {
		e.storePut(us, d, sess, effLife, ch, now, pt)
	} else if ch.refs == 0 {
		// Nothing resumable came back and no store entry holds the
		// lineage: the chain ends with this connection.
		e.closeChain(us.prof.policy, ch, pt)
	}
	return true
}

// Finalize closes every open chain and folds the per-worker tallies
// into the Results. Call once, after the last RunDay.
func (e *Engine) Finalize() *Results {
	final := make([]PolicyStats, len(e.policies))
	for _, us := range e.users {
		pt := &final[us.prof.policy]
		for _, st := range us.sess {
			// Release order across the map is irrelevant: each chain
			// records once (last reference), and all stats are additive.
			e.releaseChain(us, st.ch, pt)
		}
		us.sess = nil
	}
	res := &Results{
		Users:      e.opts.Users,
		Days:       e.days,
		Seed:       e.opts.Seed,
		MeanVisits: e.opts.meanVisits(),
		CrossHost:  e.opts.crossHost(),
		Policies:   make([]PolicyStats, len(e.policies)),
	}
	for i := range res.Policies {
		ps := &res.Policies[i]
		ps.Policy = e.policies[i]
		for w := range e.tallies {
			ps.add(&e.tallies[w][i])
		}
		ps.add(&final[i])
	}
	for _, us := range e.users {
		res.Policies[us.prof.policy].Users++
	}
	return res
}
