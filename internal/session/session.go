// Package session holds the server-side TLS session state: the resumable
// State blob (what a ticket seals, what a cache entry stores) and the
// session cache with a lifetime policy. A single Cache instance shared by
// many terminators models the cross-domain cache groups of §5.
package session

import (
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
// Expired entries are evicted on Get and by a periodic sweep piggybacked
// on Put (every sweepEvery inserts): without the sweep, sessions never
// re-touched — the overwhelming majority in a scan campaign — would
// accumulate for the campaign's whole lifetime. The sweep only removes
// entries Get would already refuse to return, so it is observationally
// inert.
//
// Capacity, when positive, bounds the cache to that many entries with
// LRU eviction — the traffic plane's browser cache caps. "Least
// recently used" orders by last-use virtual time (Put or Get hit), with
// ties broken by touch order, so eviction is deterministic for a
// deterministic operation sequence even when the virtual clock stands
// still or rewinds. Campaign server caches leave Capacity zero
// (unbounded), keeping the golden dataset untouched.
type Cache struct {
	Lifetime time.Duration
	Capacity int

	mu      sync.Mutex
	entries map[string]entry
	puts    int       // Put count, for sweep scheduling
	seq     uint64    // touch sequence, for deterministic LRU ties
	lastNow time.Time // most recent time passed to Put/Get
}

// sweepEvery is how many Puts pass between expiry sweeps; the amortized
// sweep cost per insert stays O(1) while dead state is bounded by one
// sweep window.
const sweepEvery = 128

type entry struct {
	st      *State
	created time.Time
	used    time.Time // last Put/Get-hit virtual time (LRU ordering)
	seq     uint64    // touch sequence (LRU tie-break)
}

// NewCache builds a cache with the given entry lifetime.
func NewCache(lifetime time.Duration) *Cache {
	return &Cache{Lifetime: lifetime, entries: make(map[string]entry)}
}

// NewBoundedCache builds a cache with a lifetime and an LRU capacity
// bound — the shape a browser-policy client session store uses.
func NewBoundedCache(lifetime time.Duration, capacity int) *Cache {
	return &Cache{Lifetime: lifetime, Capacity: capacity, entries: make(map[string]entry)}
}

// Put stores state under id at time now.
func (c *Cache) Put(id []byte, st *State, now time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.entries == nil {
		c.entries = make(map[string]entry)
	}
	c.seq++
	c.entries[string(id)] = entry{st: st, created: now, used: now, seq: c.seq}
	c.lastNow = now
	c.puts++
	telemetry.Global().Counter("session/cache_put").Inc()
	if c.Lifetime > 0 && c.puts%sweepEvery == 0 {
		c.sweepLocked(now)
	}
	if c.Capacity > 0 && len(c.entries) > c.Capacity {
		// Expired entries go first — they are free to drop — then LRU.
		if c.Lifetime > 0 {
			c.sweepLocked(now)
		}
		for len(c.entries) > c.Capacity {
			c.evictLRULocked()
		}
	}
}

// evictLRULocked removes the least-recently-used entry: oldest last-use
// virtual time, ties broken by oldest touch sequence. Callers hold c.mu
// and guarantee the map is non-empty.
func (c *Cache) evictLRULocked() {
	var victim string
	var vUsed time.Time
	var vSeq uint64
	first := true
	for k, e := range c.entries {
		if first || e.used.Before(vUsed) || (e.used.Equal(vUsed) && e.seq < vSeq) {
			victim, vUsed, vSeq = k, e.used, e.seq
			first = false
		}
	}
	delete(c.entries, victim)
	telemetry.Global().Counter("session/cache_evicted").Inc()
}

// Get returns the live state for id at time now, or nil if absent or
// expired (expired entries are evicted). A hit refreshes the entry's
// LRU position.
func (c *Cache) Get(id []byte, now time.Time) *State {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.lastNow = now
	e, ok := c.entries[string(id)]
	if !ok {
		// "stale" covers both never-stored and already-evicted lookups:
		// whether an expired entry was swept or is caught here depends on
		// sweep timing, so only the combined count is deterministic.
		telemetry.Global().Counter("session/cache_stale").Inc()
		return nil
	}
	if c.Lifetime > 0 && now.Sub(e.created) > c.Lifetime {
		delete(c.entries, string(id))
		tel := telemetry.Global()
		tel.Counter("session/cache_stale").Inc()
		tel.Counter("wall/session/cache_expired_get").Inc()
		return nil
	}
	c.seq++
	e.used, e.seq = now, c.seq
	c.entries[string(id)] = e
	telemetry.Global().Counter("session/cache_hit").Inc()
	return e.st
}

// sweepLocked drops every entry that Get would refuse at time now.
// Callers hold c.mu.
func (c *Cache) sweepLocked(now time.Time) {
	swept := uint64(0)
	for k, e := range c.entries {
		if now.Sub(e.created) > c.Lifetime {
			delete(c.entries, k)
			swept++
		}
	}
	if swept > 0 {
		// Sweep timing depends on Put interleaving, hence wall/.
		telemetry.Global().Counter("wall/session/cache_swept").Add(swept)
	}
}

// Len reports the number of live entries as of the most recent time the
// cache was told about (the lifetime probes rewind the virtual clock, so
// the cache tracks the latest Put/Get time rather than calling time.Now).
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.Lifetime > 0 {
		c.sweepLocked(c.lastNow)
	}
	return len(c.entries)
}
