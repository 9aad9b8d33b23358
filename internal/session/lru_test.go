package session

import (
	"fmt"
	"math/rand"
	"testing"
	"time"
)

func lruState(n int) *State { return &State{Suite: uint16(n)} }

// TestBoundedCacheEvictsLRUDeterministically pins the eviction order:
// the entry with the oldest last-use virtual time goes first, and when
// last-use times tie (the traffic plane's hour slots put many entries
// at one instant) the oldest touch sequence breaks the tie — so a
// deterministic operation sequence always evicts the same keys.
func TestBoundedCacheEvictsLRUDeterministically(t *testing.T) {
	c := NewBoundedCache(0, 3)
	t0 := time.Unix(1000, 0)

	// Same instant for all three: tie-break is insertion (touch) order.
	c.Put([]byte("a"), lruState(1), t0)
	c.Put([]byte("b"), lruState(2), t0)
	c.Put([]byte("c"), lruState(3), t0)
	c.Put([]byte("d"), lruState(4), t0) // evicts a (oldest seq)

	if got := c.Get([]byte("a"), t0); got != nil {
		t.Error("a should have been evicted (oldest touch at tied time)")
	}
	for _, k := range []string{"b", "c", "d"} {
		if got := c.Get([]byte(k), t0); got == nil {
			t.Errorf("%s should have survived", k)
		}
	}
}

// TestBoundedCacheGetRefreshesLRU pins that a Get hit counts as use:
// touching the otherwise-oldest entry redirects eviction to the next
// least-recently-used key.
func TestBoundedCacheGetRefreshesLRU(t *testing.T) {
	c := NewBoundedCache(0, 3)
	t0 := time.Unix(1000, 0)
	c.Put([]byte("a"), lruState(1), t0)
	c.Put([]byte("b"), lruState(2), t0.Add(time.Second))
	c.Put([]byte("c"), lruState(3), t0.Add(2*time.Second))

	if c.Get([]byte("a"), t0.Add(3*time.Second)) == nil {
		t.Fatal("a should be present")
	}
	c.Put([]byte("d"), lruState(4), t0.Add(4*time.Second)) // evicts b, not a

	if c.Get([]byte("b"), t0.Add(5*time.Second)) != nil {
		t.Error("b should have been evicted (least recently used after a's refresh)")
	}
	if c.Get([]byte("a"), t0.Add(5*time.Second)) == nil {
		t.Error("a should have survived: the Get hit refreshed its LRU position")
	}
}

// TestBoundedCacheEvictionIsDeterministicAcrossRuns replays one
// operation sequence against two caches and checks the surviving key
// sets match exactly — the property the traffic determinism contract
// leans on.
func TestBoundedCacheEvictionIsDeterministicAcrossRuns(t *testing.T) {
	survivors := func() map[string]bool {
		c := NewBoundedCache(0, 4)
		t0 := time.Unix(2000, 0)
		for i := 0; i < 32; i++ {
			k := fmt.Sprintf("k%d", i%7)
			c.Put([]byte(k), lruState(i), t0.Add(time.Duration(i/3)*time.Second))
			if i%5 == 0 {
				c.Get([]byte(fmt.Sprintf("k%d", (i+2)%7)), t0.Add(time.Duration(i/3)*time.Second))
			}
		}
		out := map[string]bool{}
		for i := 0; i < 7; i++ {
			k := fmt.Sprintf("k%d", i)
			if c.Get([]byte(k), t0.Add(time.Minute)) != nil {
				out[k] = true
			}
		}
		return out
	}
	a, b := survivors(), survivors()
	if len(a) != len(b) {
		t.Fatalf("different survivor counts: %v vs %v", a, b)
	}
	for k := range a {
		if !b[k] {
			t.Fatalf("survivor sets differ: %v vs %v", a, b)
		}
	}
	if len(a) != 4 {
		t.Fatalf("expected exactly capacity (4) survivors, got %v", a)
	}
}

// TestBoundedCacheLenConsistentWithSweep checks capacity pressure
// prefers dropping expired entries (the piggybacked sweep) before
// evicting live ones, and Len agrees with the expiry sweep's view.
func TestBoundedCacheLenConsistentWithSweep(t *testing.T) {
	c := NewBoundedCache(10*time.Second, 3)
	t0 := time.Unix(3000, 0)
	c.Put([]byte("old1"), lruState(1), t0)
	c.Put([]byte("old2"), lruState(2), t0)
	late := t0.Add(time.Minute) // old1/old2 now expired
	c.Put([]byte("n1"), lruState(3), late)
	c.Put([]byte("n2"), lruState(4), late)
	// Over capacity (4 > 3), but the sweep drops the two expired
	// entries, so no live entry is LRU-evicted.
	if got := c.Len(); got != 2 {
		t.Fatalf("Len = %d after capacity sweep, want 2 (both live entries kept)", got)
	}
	for _, k := range []string{"n1", "n2"} {
		if c.Get([]byte(k), late) == nil {
			t.Errorf("live entry %s was evicted although expired entries covered the overflow", k)
		}
	}
	if c.Get([]byte("old1"), late) != nil || c.Get([]byte("old2"), late) != nil {
		t.Error("expired entries survived the capacity sweep")
	}
	if got := c.Len(); got != 2 {
		t.Fatalf("Len = %d after gets, want 2", got)
	}
}

// scanCache is the bounded cache without the expiry heap: one map, a
// sweep that scans it for expired entries and an eviction that scans it
// for the least recently used (last use, then touch sequence).
// It keeps Cache's policy — every Put sweeps, then evicts down to
// capacity; a Get drops an expired hit — so the two must give the same
// answers and hold the same entries after every operation.
type scanCache struct {
	lifetime time.Duration
	capacity int
	entries  map[string]scanEntry
	seq      uint64
	lastNow  time.Time
}

type scanEntry struct {
	st            *State
	created, used time.Time
	seq           uint64
}

func (c *scanCache) expired(e scanEntry, now time.Time) bool {
	return c.lifetime > 0 && now.Sub(e.created) > c.lifetime
}

func (c *scanCache) sweep(now time.Time) {
	for k, e := range c.entries {
		if c.expired(e, now) {
			delete(c.entries, k)
		}
	}
}

func (c *scanCache) put(id string, st *State, now time.Time) {
	c.seq++
	c.lastNow = now
	c.entries[id] = scanEntry{st: st, created: now, used: now, seq: c.seq}
	c.sweep(now)
	for c.capacity > 0 && len(c.entries) > c.capacity {
		var victim string
		var v scanEntry
		first := true
		for k, e := range c.entries {
			if first || e.used.Before(v.used) || (e.used.Equal(v.used) && e.seq < v.seq) {
				victim, v, first = k, e, false
			}
		}
		delete(c.entries, victim)
	}
}

func (c *scanCache) get(id string, now time.Time) *State {
	c.lastNow = now
	e, ok := c.entries[id]
	if !ok {
		return nil
	}
	if c.expired(e, now) {
		delete(c.entries, id)
		return nil
	}
	c.seq++
	e.used, e.seq = now, c.seq
	c.entries[id] = e
	return e.st
}

// TestBoundedCacheMatchesScanEviction drives the heap-swept cache and
// the scanning reference through the same random operations — puts and
// gets over a small key set, with the virtual clock standing still,
// stepping forward and rewinding — and requires the same answer to
// every Get and Len and the same entries, states, use times and touch
// sequences after every operation.
func TestBoundedCacheMatchesScanEviction(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	t0 := time.Unix(5000, 0)
	for trial := 0; trial < 200; trial++ {
		lifetime := []time.Duration{0, 5 * time.Second, time.Minute}[rng.Intn(3)]
		capacity := rng.Intn(12) // 0: unbounded
		c := NewBoundedCache(lifetime, capacity)
		ref := &scanCache{lifetime: lifetime, capacity: capacity, entries: map[string]scanEntry{}}
		now := t0
		for op := 0; op < 400; op++ {
			switch r := rng.Intn(10); {
			case r < 5:
				now = now.Add(time.Duration(rng.Intn(4)) * time.Second)
			case r < 6:
				now = now.Add(-time.Duration(rng.Intn(90)) * time.Second) // rewind
			}
			id := fmt.Sprintf("k%02d", rng.Intn(24))
			switch r := rng.Intn(10); {
			case r < 5:
				st := lruState(op)
				c.Put([]byte(id), st, now)
				ref.put(id, st, now)
			case r < 9:
				if got, want := c.Get([]byte(id), now), ref.get(id, now); got != want {
					t.Fatalf("trial %d op %d: Get(%s) = %v, reference %v", trial, op, id, got, want)
				}
			default:
				ref.sweep(ref.lastNow)
				if got, want := c.Len(), len(ref.entries); got != want {
					t.Fatalf("trial %d op %d: Len() = %d, reference %d", trial, op, got, want)
				}
			}
			if err := sameEntries(c, ref); err != nil {
				t.Fatalf("trial %d op %d (lifetime %v, capacity %d): %v", trial, op, lifetime, capacity, err)
			}
		}
	}
}

// sameEntries compares c's entries with ref's and checks c's expiry
// heap indexes exactly those entries.
func sameEntries(c *Cache, ref *scanCache) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.entries) != len(ref.entries) || len(c.byAge) != len(c.entries) {
		return fmt.Errorf("%d entries (heap %d), reference %d", len(c.entries), len(c.byAge), len(ref.entries))
	}
	for id, e := range c.entries {
		r, ok := ref.entries[id]
		if !ok || e.st != r.st || !e.created.Equal(r.created) || !e.used.Equal(r.used) || e.seq != r.seq {
			return fmt.Errorf("entry %s differs from the reference (present there: %v)", id, ok)
		}
		if c.byAge[e.age] != e {
			return fmt.Errorf("entry %s is not at its heap index %d", id, e.age)
		}
	}
	return nil
}
