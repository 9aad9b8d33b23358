package scanner

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"sync/atomic"
	"testing"

	"tlsshortcuts/internal/par"
	"tlsshortcuts/internal/simnet"
)

// TestForEachVisitsEachIndexOnce checks the scanner's side of the worker
// pool: after ensureArenas, par.ForEach at the scanner's worker count
// visits every index once, and every slot it hands out has an arena.
func TestForEachVisitsEachIndexOnce(t *testing.T) {
	for _, tc := range []struct{ n, workers int }{
		{0, 8}, {1, 8}, {7, 8}, {100, 8}, {100, 1}, {3, 16}, {1000, 4},
	} {
		s := &Scanner{Workers: tc.workers}
		s.ensureArenas()
		counts := make([]atomic.Int32, tc.n+1)
		par.ForEach(s.workers(), tc.n, func(w, i int) {
			if i < 0 || i >= tc.n {
				t.Errorf("n=%d workers=%d: index %d out of range", tc.n, tc.workers, i)
				return
			}
			if w < 0 || w >= len(s.arenas) || s.arenas[w] == nil {
				t.Errorf("n=%d workers=%d: worker slot %d has no arena", tc.n, tc.workers, w)
			}
			counts[i].Add(1)
		})
		for i := 0; i < tc.n; i++ {
			if got := counts[i].Load(); got != 1 {
				t.Errorf("n=%d workers=%d: index %d visited %d times", tc.n, tc.workers, i, got)
			}
		}
	}
}

func TestForEachDefaultWorkers(t *testing.T) {
	s := &Scanner{} // Workers unset -> default pool
	s.ensureArenas()
	if len(s.arenas) != 8 {
		t.Fatalf("default pool has %d arenas, want 8", len(s.arenas))
	}
	var total atomic.Int32
	par.ForEach(s.workers(), 50, func(int, int) { total.Add(1) })
	if total.Load() != 50 {
		t.Fatalf("visited %d of 50", total.Load())
	}
}

func TestSeededPrefixExtension(t *testing.T) {
	shuffle := rand.New(rand.NewSource(0))
	list := make([]string, 40)
	for i := range list {
		list[i] = string(rune('a'+i%26)) + string(rune('0'+i/26))
	}
	sort.Strings(list) // as the topology hands it over
	for _, domain := range []string{"example.com", "other.net"} {
		full := seededPrefix(shuffle, domain, list, len(list))
		seen := make(map[string]bool)
		for _, d := range full {
			if seen[d] {
				t.Fatalf("%s: duplicate %q in shuffle", domain, d)
			}
			seen[d] = true
		}
		if len(full) != len(list) {
			t.Fatalf("%s: full shuffle has %d of %d elements", domain, len(full), len(list))
		}
		// A smaller budget must be a strict prefix of a larger one: the
		// cross-domain scan's budget can grow without invalidating old runs.
		for n := 0; n <= len(list); n++ {
			got := seededPrefix(shuffle, domain, list, n)
			if len(got) != n {
				t.Fatalf("%s: seededPrefix(%d) returned %d elements", domain, n, len(got))
			}
			for i, d := range got {
				if d != full[i] {
					t.Fatalf("%s: prefix(%d)[%d] = %q, want %q", domain, n, i, d, full[i])
				}
			}
		}
	}
	if got := seededPrefix(shuffle, "x", nil, 3); got != nil {
		t.Fatalf("empty list: got %v", got)
	}
	if got := seededPrefix(shuffle, "x", list, 100); len(got) != len(list) {
		t.Fatalf("oversized budget: got %d elements", len(got))
	}
}

// copyShufflePrefix is the reference draw seededPrefix must match: a
// sorted copy of list without domain, then the first n steps of a
// Fisher-Yates shuffle over a second copy.
func copyShufflePrefix(domain string, list []string, n int) []string {
	var others []string
	for _, d := range list {
		if d != domain {
			others = append(others, d)
		}
	}
	sort.Strings(others)
	if len(others) == 0 || n <= 0 {
		return nil
	}
	h := fnv.New64a()
	h.Write([]byte(domain))
	rng := rand.New(rand.NewSource(int64(h.Sum64())))
	shuffled := append([]string(nil), others...)
	if n > len(shuffled) {
		n = len(shuffled)
	}
	for i := 0; i < n && i < len(shuffled)-1; i++ {
		j := i + rng.Intn(len(shuffled)-i)
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	}
	return shuffled[:n]
}

// TestSeededPrefixMatchesCopyShuffle draws from sorted lists of random
// sizes, with the domain at a random position, twice, or absent (as in
// SameIP's lists), at budgets from below zero to past the list's end:
// the draw over the shared list, from one source re-seeded per draw,
// must pick the same names in the same order as the copy-and-shuffle
// reference's fresh source, and leave the list as it was.
func TestSeededPrefixMatchesCopyShuffle(t *testing.T) {
	rng, shuffle := rand.New(rand.NewSource(1)), rand.New(rand.NewSource(0))
	for trial := 0; trial < 3000; trial++ {
		size := rng.Intn(40)
		if trial%100 == 0 {
			size = rng.Intn(5000)
		}
		list := make([]string, size)
		for i := range list {
			list[i] = fmt.Sprintf("d%05d.example", i)
		}
		var domain string
		switch p := rng.Intn(size + 2); {
		case p < size:
			domain = list[p]
			if rng.Intn(10) == 0 { // registered twice
				list = append(append(list[:p+1:p+1], domain), list[p+1:]...)
			}
		default: // absent; sorts just after a random position
			domain = fmt.Sprintf("d%05d.example-x", rng.Intn(size+1))
		}
		before := slices.Clone(list)
		budgets := []int{rng.Intn(size+3) - 1, 5, size}
		for _, n := range budgets {
			got := seededPrefix(shuffle, domain, list, n)
			if want := copyShufflePrefix(domain, list, n); !reflect.DeepEqual(got, want) {
				t.Fatalf("size %d, domain %s, budget %d: got %v, want %v", len(list), domain, n, got, want)
			}
		}
		if !slices.Equal(list, before) {
			t.Fatalf("size %d, domain %s: seededPrefix changed its list", len(list), domain)
		}
	}
}

// TestSameASDrawCostFlat pins the cost of choosing a domain's same-AS
// candidates: the bytes one SameAS plus seededPrefix call allocates must
// not grow with the AS, and must stay near the drawn names' own 80 B. A
// draw that copied or sorted the AS list would make the cross-domain
// phase quadratic in operator size: the largest AS holds 18,000 domains
// in a 100k seed-3 world. A math/rand source allocated per draw costs
// 5,376 B.
func TestSameASDrawCostFlat(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	perCall := func(asSize int) uint64 {
		net := simnet.New()
		for i := 0; i < asSize; i++ {
			d := fmt.Sprintf("d%06d.example", i*7919%asSize) // registered out of order
			net.Register(d, 1, []string{"ip-" + d})
		}
		const domain, runs = "d000050.example", 100
		shuffle := rand.New(rand.NewSource(0))
		draw := func() { seededPrefix(shuffle, domain, net.SameAS(domain), 5) }
		draw() // the first call after Register sorts the list
		best := ^uint64(0)
		for rep := 0; rep < 3; rep++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < runs; i++ {
				draw()
			}
			runtime.ReadMemStats(&after)
			if b := (after.TotalAlloc - before.TotalAlloc) / runs; b < best {
				best = b
			}
		}
		return best
	}
	small, large := perCall(100), perCall(20000)
	t.Logf("bytes per SameAS + seededPrefix call: %d for an AS of 100 domains, %d for 20,000", small, large)
	if large > small {
		t.Fatalf("an AS of 20,000 domains costs %d B per draw, one of 100 costs %d B: the draw copies the list", large, small)
	}
	if small > 256 {
		t.Fatalf("a draw of 5 names allocates %d B, more than 256", small)
	}
}

func TestUnionFind(t *testing.T) {
	u := NewUnionFind()
	if r := u.Find("a"); r != "a" {
		t.Fatalf("fresh element root = %q", r)
	}
	u.Union("a", "b")
	u.Union("c", "d")
	if u.Find("a") != u.Find("b") {
		t.Fatal("a and b not merged")
	}
	if u.Find("a") == u.Find("c") {
		t.Fatal("separate components merged")
	}
	u.Union("b", "c")
	for _, x := range []string{"a", "b", "c", "d"} {
		if u.Find(x) != u.Find("a") {
			t.Fatalf("%s not in merged component", x)
		}
	}
	u.Union("a", "d") // already joined: must be a no-op
	u.Find("solo")
	sets := u.Sets()
	if len(sets) != 2 || len(sets[0]) != 4 || len(sets[1]) != 1 {
		t.Fatalf("Sets() = %v", sets)
	}
	for i, want := range []string{"a", "b", "c", "d"} {
		if sets[0][i] != want {
			t.Fatalf("set not sorted: %v", sets[0])
		}
	}
}

func TestUnionFindPathCompression(t *testing.T) {
	u := NewUnionFind()
	// Build a long chain by always unioning a new singleton into the tail.
	const n = 10000
	names := make([]string, n)
	for i := range names {
		names[i] = "d" + string(rune('0'+i%10)) + string(rune('a'+(i/10)%26)) + string(rune('a'+i/260))
	}
	for i := 1; i < n; i++ {
		u.Union(names[i-1], names[i])
	}
	root := u.Find(names[0])
	for _, x := range names {
		if u.Find(x) != root {
			t.Fatalf("%s not in chain component", x)
		}
		// After Find, the element must point directly at the root.
		if u.parent[x] != root {
			t.Fatalf("path not compressed for %s", x)
		}
	}
}
