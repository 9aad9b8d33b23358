// Package session holds the server-side TLS session state: the resumable
// State blob (what a ticket seals, what a cache entry stores) and the
// session cache with a lifetime policy. A single Cache instance shared by
// many terminators models the cross-domain cache groups of §5.
package session

import (
	"container/heap"
	"encoding/binary"
	"fmt"
	"sync"
	"time"

	"tlsshortcuts/internal/telemetry"
)

// State is the resumable session state. Its serialization is the RFC 5077
// "StatePlaintext" analog that tickets encrypt.
type State struct {
	Version      uint16
	Suite        uint16
	CreatedAt    time.Time
	MasterSecret [48]byte
}

const stateLen = 2 + 2 + 8 + 48

// AppendMarshal appends the serialized state to dst, so a ticket seal
// can marshal straight into the outgoing message buffer.
func (s *State) AppendMarshal(dst []byte) []byte {
	var out [stateLen]byte
	binary.BigEndian.PutUint16(out[0:2], s.Version)
	binary.BigEndian.PutUint16(out[2:4], s.Suite)
	binary.BigEndian.PutUint64(out[4:12], uint64(s.CreatedAt.Unix()))
	copy(out[12:], s.MasterSecret[:])
	return append(dst, out[:]...)
}

// MarshaledLen is the fixed serialized length of a State.
const MarshaledLen = stateLen

// UnmarshalInto reverses AppendMarshal, decoding into caller-owned
// storage (the server's pooled per-connection ticket scratch).
func UnmarshalInto(dst *State, b []byte) error {
	if len(b) != stateLen {
		return fmt.Errorf("session: bad state length %d", len(b))
	}
	dst.Version = binary.BigEndian.Uint16(b[0:2])
	dst.Suite = binary.BigEndian.Uint16(b[2:4])
	dst.CreatedAt = time.Unix(int64(binary.BigEndian.Uint64(b[4:12])), 0).UTC()
	copy(dst.MasterSecret[:], b[12:])
	return nil
}

// Cache is a server-side session cache (ID -> State) with a lifetime
// policy. The zero Lifetime means entries never expire by age.
//
// Expired entries are evicted on Get, and every Put first drops the
// entries expired at its time: without that sweep, sessions never
// re-touched — the overwhelming majority in a scan campaign — would
// accumulate for the campaign's whole lifetime, a server cache that
// sees a couple of Puts a day keeping every day's session. A sweep at
// time now only removes entries that Get refuses at now and at every
// later time, so it is observationally inert as long as no ID is
// offered at a virtual time earlier than a sweep that ran after the ID
// was stored (DESIGN §10 says why the campaign's clock rewinds keep to
// that).
//
// Capacity, when positive, bounds the cache to that many entries with
// LRU eviction — the traffic plane's browser cache caps. "Least
// recently used" orders by last-use virtual time (Put or Get hit), with
// ties broken by touch order, so eviction is deterministic for a
// deterministic operation sequence even when the virtual clock stands
// still or rewinds. Campaign server caches leave Capacity zero
// (unbounded), keeping the golden dataset untouched.
//
// A heap in creation order — the order entries expire in — lets the
// sweep stop at the first live entry, so a Put that drops nothing costs
// O(1) besides its own O(log n) insert. An over-capacity Put scans for
// its victim: the browser caps are rarely reached (DESIGN §10).
type Cache struct {
	Lifetime time.Duration
	Capacity int

	mu      sync.Mutex
	entries map[string]*entry
	byAge   ageHeap   // oldest creation time first
	seq     uint64    // touch sequence, for deterministic LRU ties
	lastNow time.Time // most recent time passed to Put/Get
}

type entry struct {
	id      string
	st      *State
	created time.Time
	used    time.Time // last Put/Get-hit virtual time (LRU ordering)
	seq     uint64    // touch sequence (LRU tie-break)
	age     int       // index in byAge
}

// ageHeap orders entries by creation time, the order they expire in.
type ageHeap []*entry

func (h ageHeap) Len() int           { return len(h) }
func (h ageHeap) Less(i, j int) bool { return h[i].created.Before(h[j].created) }
func (h ageHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i]; h[i].age, h[j].age = i, j }
func (h *ageHeap) Push(x any)        { e := x.(*entry); e.age = len(*h); *h = append(*h, e) }
func (h *ageHeap) Pop() any {
	old := *h
	e := old[len(old)-1]
	old[len(old)-1] = nil
	*h = old[:len(old)-1]
	return e
}

// NewCache builds a cache with the given entry lifetime.
func NewCache(lifetime time.Duration) *Cache {
	return &Cache{Lifetime: lifetime}
}

// NewBoundedCache builds a cache with a lifetime and an LRU capacity
// bound — the shape a browser-policy client session store uses.
func NewBoundedCache(lifetime time.Duration, capacity int) *Cache {
	return &Cache{Lifetime: lifetime, Capacity: capacity}
}

// Counters counts cache operations into a registry's session/
// counters, resolved once: puts, hits, stale lookups and LRU evictions,
// and under wall/ the expired entries a Put swept or a Get found, whose
// split depends on sweep timing. The zero value counts nothing, and
// Cache's Put and Get are its methods on the zero value.
type Counters struct {
	put, hit, stale, evicted, swept, expiredGet *telemetry.Counter
}

// NewCounters resolves r's session/ counters once.
func NewCounters(r *telemetry.Registry) Counters {
	return Counters{
		put:        r.LazyCounter("session/cache_put"),
		hit:        r.LazyCounter("session/cache_hit"),
		stale:      r.LazyCounter("session/cache_stale"),
		evicted:    r.LazyCounter("session/cache_evicted"),
		swept:      r.LazyCounter("wall/session/cache_swept"),
		expiredGet: r.LazyCounter("wall/session/cache_expired_get"),
	}
}

// Put stores state under id at time now.
func (c *Cache) Put(id []byte, st *State, now time.Time) { Counters{}.Put(c, id, st, now) }

// Get returns the live state for id at time now, or nil if absent or
// expired (expired entries are evicted). A hit refreshes the entry's
// LRU position.
func (c *Cache) Get(id []byte, now time.Time) *State { return Counters{}.Get(c, id, now) }

// Put is Cache.Put counting into n.
func (n Counters) Put(c *Cache, id []byte, st *State, now time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.seq++
	c.lastNow = now
	if e, ok := c.entries[string(id)]; ok {
		e.st, e.created, e.used, e.seq = st, now, now, c.seq
		heap.Fix(&c.byAge, e.age)
	} else {
		if c.entries == nil {
			c.entries = make(map[string]*entry)
		}
		e := &entry{id: string(id), st: st, created: now, used: now, seq: c.seq}
		c.entries[e.id] = e
		heap.Push(&c.byAge, e)
	}
	n.put.Inc()
	// Expired entries go first — they are free to drop — then LRU.
	n.swept.Add(c.sweepLocked(now))
	for c.Capacity > 0 && len(c.entries) > c.Capacity {
		c.evictLRULocked()
		n.evicted.Inc()
	}
}

// evictLRULocked removes the least-recently-used entry: oldest last-use
// virtual time, ties broken by oldest touch sequence. Callers hold c.mu
// and guarantee the map is non-empty.
func (c *Cache) evictLRULocked() {
	var victim *entry
	for _, e := range c.entries {
		if victim == nil || e.used.Before(victim.used) || (e.used.Equal(victim.used) && e.seq < victim.seq) {
			victim = e
		}
	}
	c.removeLocked(victim)
}

// removeLocked deletes e from the map and the heap. Callers hold c.mu.
func (c *Cache) removeLocked(e *entry) {
	heap.Remove(&c.byAge, e.age)
	delete(c.entries, e.id)
}

// Get is Cache.Get counting into n.
func (n Counters) Get(c *Cache, id []byte, now time.Time) *State {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.lastNow = now
	e, ok := c.entries[string(id)]
	if !ok {
		// "stale" covers both never-stored and already-evicted lookups:
		// whether an expired entry was swept or is caught here depends on
		// sweep timing, so only the combined count is deterministic.
		n.stale.Inc()
		return nil
	}
	if c.expired(e, now) {
		c.removeLocked(e)
		n.stale.Inc()
		n.expiredGet.Inc()
		return nil
	}
	c.seq++
	e.used, e.seq = now, c.seq
	n.hit.Inc()
	return e.st
}

func (c *Cache) expired(e *entry, now time.Time) bool {
	return c.Lifetime > 0 && now.Sub(e.created) > c.Lifetime
}

// sweepLocked drops every entry that Get would refuse at time now and
// returns how many: the expired ones are exactly the oldest-created, so
// they come off the top of byAge. Callers hold c.mu.
func (c *Cache) sweepLocked(now time.Time) (swept uint64) {
	for len(c.byAge) > 0 && c.expired(c.byAge[0], now) {
		c.removeLocked(c.byAge[0])
		swept++
	}
	return swept
}

// Len reports the number of live entries as of the most recent time the
// cache was told about (the lifetime probes rewind the virtual clock, so
// the cache tracks the latest Put/Get time rather than calling time.Now).
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.sweepLocked(c.lastNow)
	return len(c.entries)
}
