package session

import (
	"encoding/binary"
	"testing"
	"time"
)

func sid(i int) []byte {
	b := make([]byte, 8)
	binary.BigEndian.PutUint64(b, uint64(i))
	return b
}

func TestSweepOnPutEvictsExpiredEntries(t *testing.T) {
	c := NewCache(time.Hour)
	t0 := time.Date(2016, time.March, 2, 0, 0, 0, 0, time.UTC)
	for i := 0; i < 100; i++ {
		c.Put(sid(i), &State{}, t0)
	}
	// 100 more puts two hours later: the first batch is expired, and the
	// first of them sweeps it.
	t1 := t0.Add(2 * time.Hour)
	for i := 100; i < 200; i++ {
		c.Put(sid(i), &State{}, t1)
	}
	// Inspect the map directly (Len would itself sweep): the Put-time
	// sweep must already have dropped the expired batch.
	c.mu.Lock()
	raw := len(c.entries)
	c.mu.Unlock()
	if raw != 100 {
		t.Fatalf("map holds %d entries after Put-time sweep, want 100", raw)
	}
	if got := c.Len(); got != 100 {
		t.Fatalf("Len() = %d after sweep, want 100 live entries", got)
	}
	if st := c.Get(sid(0), t1); st != nil {
		t.Fatal("Get returned an expired entry")
	}
	if st := c.Get(sid(150), t1); st == nil {
		t.Fatal("Get dropped a live entry")
	}
}

func TestLenReportsLiveEntriesWithoutSweepTrigger(t *testing.T) {
	c := NewCache(time.Hour)
	t0 := time.Date(2016, time.March, 2, 0, 0, 0, 0, time.UTC)
	for i := 0; i < 5; i++ {
		c.Put(sid(i), &State{}, t0)
	}
	// Len must count only entries Get would return at the latest time
	// the cache has seen, whether a Put or a Get told it that time.
	c.Put(sid(99), &State{}, t0.Add(2*time.Hour))
	if got := c.Len(); got != 1 {
		t.Fatalf("Len() = %d, want 1 live entry", got)
	}
	c.Get(sid(1000), t0.Add(4*time.Hour)) // a miss; no Put sweeps after it
	if got := c.Len(); got != 0 {
		t.Fatalf("Len() = %d after a later Get, want 0 live entries", got)
	}
}

// TestPutSweepsAcrossVirtualDays stores one session a virtual day into a
// cache with a 1 h lifetime, as a campaign server cache sees a domain's
// daily scans. Each Put must leave only its own entry behind (the map
// is read directly, since Len would itself sweep), and every Get must
// answer as a reference that never sweeps and checks the lifetime on
// lookup.
func TestPutSweepsAcrossVirtualDays(t *testing.T) {
	c := NewCache(time.Hour)
	t0 := time.Date(2016, time.March, 2, 0, 0, 0, 0, time.UTC)
	type stored struct {
		st      *State
		created time.Time
	}
	var ref []stored // never swept
	for day := 0; day < 30; day++ {
		now := t0.Add(time.Duration(day) * 24 * time.Hour)
		st := &State{Suite: uint16(day)}
		c.Put(sid(day), st, now)
		ref = append(ref, stored{st, now})
		c.mu.Lock()
		raw := len(c.entries)
		c.mu.Unlock()
		if raw != 1 {
			t.Fatalf("day %d: cache holds %d entries after Put, want 1", day, raw)
		}
		for d, r := range ref {
			var want *State
			if now.Sub(r.created) <= time.Hour {
				want = r.st
			}
			if got := c.Get(sid(d), now); got != want {
				t.Fatalf("day %d: Get(day %d) = %v, reference %v", day, d, got, want)
			}
		}
	}
}

func TestZeroLifetimeNeverExpires(t *testing.T) {
	c := NewCache(0)
	t0 := time.Date(2016, time.March, 2, 0, 0, 0, 0, time.UTC)
	for i := 0; i < 300; i++ {
		c.Put(sid(i), &State{}, t0.Add(time.Duration(i)*time.Hour))
	}
	if got := c.Len(); got != 300 {
		t.Fatalf("Len() = %d with zero lifetime, want 300", got)
	}
	if st := c.Get(sid(0), t0.Add(1000*time.Hour)); st == nil {
		t.Fatal("zero-lifetime cache expired an entry")
	}
}

func TestGetEvictsExpiredEntry(t *testing.T) {
	c := NewCache(time.Hour)
	t0 := time.Date(2016, time.March, 2, 0, 0, 0, 0, time.UTC)
	c.Put(sid(1), &State{}, t0)
	if st := c.Get(sid(1), t0.Add(30*time.Minute)); st == nil {
		t.Fatal("entry expired too early")
	}
	if st := c.Get(sid(1), t0.Add(2*time.Hour)); st != nil {
		t.Fatal("expired entry returned")
	}
	if got := c.Len(); got != 0 {
		t.Fatalf("Len() = %d after expiry eviction, want 0", got)
	}
}
