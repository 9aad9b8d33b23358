package telemetry

import (
	"bytes"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestNilReceiversAreInert pins the package contract: every instrument
// handed out by a nil registry — and the registry itself — must be a
// safe no-op, so call sites never need their own nil checks.
func TestNilReceiversAreInert(t *testing.T) {
	var r *Registry
	r.Counter("x").Inc()
	r.Counter("x").Add(7)
	r.Histogram("y").Observe(time.Second)
	if got := r.Value("x"); got != 0 {
		t.Fatalf("nil registry Value = %d, want 0", got)
	}
	s := r.Snapshot()
	if len(s.Counters) != 0 || len(s.Histograms) != 0 {
		t.Fatalf("nil registry snapshot not empty: %+v", s)
	}
	var c *Counter
	c.Inc()
	c.Add(3)
	if c.Value() != 0 {
		t.Fatal("nil counter holds a value")
	}
	var h *Histogram
	h.Observe(time.Minute)
	var snap *Snapshot
	if d := snap.Deterministic(); len(d.Counters) != 0 {
		t.Fatal("nil snapshot Deterministic not empty")
	}
	if out := snap.Render(); !strings.Contains(out, "no telemetry") {
		t.Fatalf("nil snapshot Render = %q", out)
	}
}

// TestConcurrentCountersAndHistograms exercises the atomic paths from
// many goroutines; run under -race this is the data-race proof, and the
// final totals prove no increment is lost.
func TestConcurrentCountersAndHistograms(t *testing.T) {
	r := NewRegistry()
	const goroutines = 16
	const perG = 2000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				r.Counter("shared").Inc()
				r.Counter("shared").Add(2)
				r.Histogram("lat").Observe(time.Duration(i%97) * time.Millisecond)
				// Mixed create-and-write on distinct names stresses the
				// registry's read/write lock upgrade path.
				r.Counter("per/" + string(rune('a'+g))).Inc()
			}
		}(g)
	}
	wg.Wait()

	if got, want := r.Value("shared"), uint64(goroutines*perG*3); got != want {
		t.Fatalf("shared counter = %d, want %d", got, want)
	}
	s := r.Snapshot()
	h := s.Histograms["lat"]
	if got, want := h.Count, uint64(goroutines*perG); got != want {
		t.Fatalf("histogram count = %d, want %d", got, want)
	}
	var bucketSum uint64
	for _, b := range h.Buckets {
		bucketSum += b.N
	}
	if bucketSum != h.Count {
		t.Fatalf("bucket sum %d != count %d", bucketSum, h.Count)
	}
	if h.Max != 96*time.Millisecond {
		t.Fatalf("histogram max = %v, want 96ms", h.Max)
	}
}

// TestSnapshotImmutability: a snapshot is a deep copy — registry writes
// after the snapshot must never show up in it.
func TestSnapshotImmutability(t *testing.T) {
	r := NewRegistry()
	r.Counter("c").Add(5)
	r.Histogram("h").Observe(10 * time.Millisecond)
	snap := r.Snapshot()

	r.Counter("c").Add(100)
	r.Counter("new").Inc()
	r.Histogram("h").Observe(time.Hour)
	r.Histogram("h2").Observe(time.Second)

	if got := snap.Counters["c"]; got != 5 {
		t.Fatalf("snapshot counter mutated: %d", got)
	}
	if _, ok := snap.Counters["new"]; ok {
		t.Fatal("counter created after snapshot leaked in")
	}
	h := snap.Histograms["h"]
	if h.Count != 1 || h.Max != 10*time.Millisecond {
		t.Fatalf("snapshot histogram mutated: %+v", h)
	}
	if _, ok := snap.Histograms["h2"]; ok {
		t.Fatal("histogram created after snapshot leaked in")
	}
}

// TestDeterministicFiltersWallPrefix: the wall/ subtree — and only the
// wall/ subtree — is dropped for cross-worker-count comparisons.
func TestDeterministicFiltersWallPrefix(t *testing.T) {
	r := NewRegistry()
	r.Counter("scanner/probes").Add(10)
	r.Counter("wall/scanner/busy_ns").Add(12345)
	r.Histogram("scanner/vlatency/daily|ticket").Observe(time.Second)
	r.Histogram("wall/scanner/latency/daily|ticket").Observe(time.Millisecond)

	d := r.Snapshot().Deterministic()
	if _, ok := d.Counters["wall/scanner/busy_ns"]; ok {
		t.Fatal("wall/ counter survived Deterministic")
	}
	if _, ok := d.Histograms["wall/scanner/latency/daily|ticket"]; ok {
		t.Fatal("wall/ histogram survived Deterministic")
	}
	if d.Counters["scanner/probes"] != 10 {
		t.Fatal("deterministic counter dropped")
	}
	if d.Histograms["scanner/vlatency/daily|ticket"].Count != 1 {
		t.Fatal("deterministic histogram dropped")
	}
}

// TestSpanJSONLRoundTrip pins the span schema: Encode then DecodeSpans
// must reproduce the records field for field.
func TestSpanJSONLRoundTrip(t *testing.T) {
	in := []Span{
		{Phase: "lifetime-id", Day: -1, Days: 8, VirtualDate: "2016-01-01T00:00:00Z",
			Domains: 150, Failures: 2, Handshakes: 300, Retries: 4,
			WallNanos: 1234567, Workers: 8, Utilization: 0.71},
		{Phase: "day", Day: 3, Days: 8, VirtualDate: "2016-01-04T00:00:00Z",
			Domains: 200, Failures: 1, PairFailures: 2, Handshakes: 520,
			Retries: 9, WallNanos: 987654, Workers: 8, Utilization: 0.93},
		{Phase: "cross-domain", Day: -1, Days: 8, Domains: 150, Handshakes: 900},
	}
	var buf bytes.Buffer
	for i := range in {
		if err := in[i].Encode(&buf); err != nil {
			t.Fatalf("encode span %d: %v", i, err)
		}
	}
	if lines := strings.Count(buf.String(), "\n"); lines != len(in) {
		t.Fatalf("expected %d JSONL lines, got %d", len(in), lines)
	}
	out, err := DecodeSpans(&buf)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip mismatch:\n in  %+v\n out %+v", in, out)
	}
}

// TestHistogramQuantiles checks that each quantile is the bound of the
// bucket holding the nearest-rank observation, ⌈q·N⌉, capped at Max:
// never a bucket below the quantile, never above the largest
// observation, and an integral q·N is that rank exactly.
func TestHistogramQuantiles(t *testing.T) {
	type obs struct {
		d time.Duration
		n int
	}
	for _, tc := range []struct {
		name string
		obs  []obs
		q    float64
		want time.Duration
	}{
		{"p50 of 99 fast and one slow", []obs{{2 * time.Microsecond, 99}, {10 * time.Second, 1}}, 0.50, 4 * time.Microsecond},
		{"p100 reaches the tail", []obs{{2 * time.Microsecond, 99}, {10 * time.Second, 1}}, 1.0, 10 * time.Second},
		{"integral rank: p50 of 50+50", []obs{{time.Microsecond, 50}, {time.Second, 50}}, 0.50, time.Microsecond},
		{"integral rank: p7 of 7+93", []obs{{time.Microsecond, 7}, {time.Second, 93}}, 0.07, time.Microsecond},
		{"p99 of 148 fast and 2 slow", []obs{{time.Microsecond, 148}, {time.Second, 2}}, 0.99, time.Second},
		{"p99 of one fast and one slow", []obs{{time.Microsecond, 1}, {time.Second, 1}}, 0.99, time.Second},
		{"never above Max: bucket le=4.096ms", []obs{{time.Millisecond, 1}, {1697 * time.Microsecond, 1}}, 0.99, 1697 * time.Microsecond},
	} {
		r := NewRegistry()
		h := r.Histogram("q")
		for _, o := range tc.obs {
			for i := 0; i < o.n; i++ {
				h.Observe(o.d)
			}
		}
		if got := r.Snapshot().Histograms["q"].Quantile(tc.q); got != tc.want {
			t.Errorf("%s: q=%v = %v, want %v", tc.name, tc.q, got, tc.want)
		}
	}
	r := NewRegistry()
	r.Histogram("q").Observe(2 * time.Microsecond)
	r.Histogram("q").Observe(10 * time.Second)
	if s := r.Snapshot().Histograms["q"]; s.Mean() <= 2*time.Microsecond {
		t.Fatalf("mean = %v, want > 2µs", s.Mean())
	}
}

// TestMergeHistograms: merging a prefixed family must sum counts and
// buckets and keep the overflow bucket ordered last.
func TestMergeHistograms(t *testing.T) {
	r := NewRegistry()
	r.Histogram("wall/lat/a").Observe(time.Millisecond)
	r.Histogram("wall/lat/a").Observe(100 * time.Hour) // overflow bucket
	r.Histogram("wall/lat/b").Observe(2 * time.Millisecond)
	r.Histogram("other").Observe(time.Second)

	m := r.Snapshot().MergeHistograms("wall/lat/")
	if m.Count != 3 {
		t.Fatalf("merged count = %d, want 3", m.Count)
	}
	if m.Max != 100*time.Hour {
		t.Fatalf("merged max = %v", m.Max)
	}
	if last := m.Buckets[len(m.Buckets)-1]; last.LE != -1 {
		t.Fatalf("overflow bucket not last: %+v", m.Buckets)
	}
}

// TestRenderDeterministic: Render must produce identical output across
// calls (sorted keys, fixed alignment) despite map iteration order.
func TestRenderDeterministic(t *testing.T) {
	r := NewRegistry()
	for _, n := range []string{"z/last", "a/first", "m/middle", "wall/x", "simnet/dials"} {
		r.Counter(n).Add(uint64(len(n)))
	}
	r.Histogram("lat/one").Observe(time.Millisecond)
	r.Histogram("lat/two").Observe(time.Second)
	s := r.Snapshot()
	first := s.Render()
	for i := 0; i < 20; i++ {
		if got := s.Render(); got != first {
			t.Fatalf("Render not deterministic:\n%s\nvs\n%s", first, got)
		}
	}
	if !strings.Contains(first, "a/first") || strings.Index(first, "a/first") > strings.Index(first, "z/last") {
		t.Fatalf("keys not sorted:\n%s", first)
	}
}

// TestMergeSnapshots pins the shard-merge semantics: counters sum,
// histogram buckets align on the shared ladder (the same alignment
// MergeHistograms depends on), Max takes the largest shard's, and the
// merged snapshot feeds MergeHistograms exactly like a monolithic one.
func TestMergeSnapshots(t *testing.T) {
	mk := func(obs ...time.Duration) *Snapshot {
		r := NewRegistry()
		for _, d := range obs {
			r.Counter("scanner/probes").Inc()
			r.Histogram("scanner/vlatency/daily|ticket").Observe(d)
		}
		return r.Snapshot()
	}
	a := mk(2*time.Microsecond, 10*time.Millisecond)
	b := mk(3*time.Microsecond, time.Hour*100) // overflow bucket
	mono := mk(2*time.Microsecond, 10*time.Millisecond, 3*time.Microsecond, time.Hour*100)

	m := MergeSnapshots(a, b, nil)
	if got := m.Counters["scanner/probes"]; got != 4 {
		t.Fatalf("merged counter = %d, want 4", got)
	}
	mh := m.Histograms["scanner/vlatency/daily|ticket"]
	wh := mono.Histograms["scanner/vlatency/daily|ticket"]
	if !reflect.DeepEqual(mh, wh) {
		t.Fatalf("merged histogram differs from monolithic:\n  got  %+v\n  want %+v", mh, wh)
	}
	if mh.Buckets[len(mh.Buckets)-1].LE != -1 {
		t.Fatalf("overflow bucket must sort last: %+v", mh.Buckets)
	}
	if got, want := m.MergeHistograms("scanner/vlatency/"), mono.MergeHistograms("scanner/vlatency/"); !reflect.DeepEqual(got, want) {
		t.Fatalf("MergeHistograms over merged snapshot differs:\n  got  %+v\n  want %+v", got, want)
	}
}

// TestQuantileMeanEdgeCases pins the histogram-snapshot estimators on
// degenerate inputs: empty histograms (a shard journal that never
// observed the family), q at and outside the [0,1] ends, and
// single-bucket distributions.
func TestQuantileMeanEdgeCases(t *testing.T) {
	var empty HistogramSnapshot
	if got := empty.Quantile(0.5); got != 0 {
		t.Fatalf("empty p50 = %v, want 0", got)
	}
	if got := empty.Quantile(1); got != 0 {
		t.Fatalf("empty p100 = %v, want 0", got)
	}
	if got := empty.Mean(); got != 0 {
		t.Fatalf("empty mean = %v, want 0", got)
	}

	r := NewRegistry()
	h := r.Histogram("one")
	for i := 0; i < 7; i++ {
		h.Observe(3 * time.Microsecond) // single bucket, le=4µs
	}
	s := r.Snapshot().Histograms["one"]
	if len(s.Buckets) != 1 {
		t.Fatalf("want single bucket, got %+v", s.Buckets)
	}
	// q<=0 is defined as 0; every in-range q lands in the only bucket,
	// whose 4µs bound is capped at the 3µs Max.
	if got := s.Quantile(0); got != 0 {
		t.Fatalf("q=0 = %v, want 0", got)
	}
	if got := s.Quantile(-1); got != 0 {
		t.Fatalf("q=-1 = %v, want 0", got)
	}
	for _, q := range []float64{0.0001, 0.5, 1} {
		if got := s.Quantile(q); got != 3*time.Microsecond {
			t.Fatalf("single-bucket q=%v = %v, want 3µs", q, got)
		}
	}
	// q>1 asks past the last observation; the estimator saturates at Max.
	if got := s.Quantile(2); got != s.Max {
		t.Fatalf("q=2 = %v, want Max %v", got, s.Max)
	}
	if got := s.Mean(); got != 3*time.Microsecond {
		t.Fatalf("single-value mean = %v, want 3µs", got)
	}

	// Overflow-only distribution: every quantile resolves to Max, not to
	// the sentinel -1 bound.
	r2 := NewRegistry()
	r2.Histogram("ovf").Observe(400 * time.Hour)
	o := r2.Snapshot().Histograms["ovf"]
	if got := o.Quantile(0.5); got != 400*time.Hour {
		t.Fatalf("overflow p50 = %v, want 400h", got)
	}
}

// TestMergeSnapshotsAssociative: shard journals merge in whatever order
// they are listed, so merge(a, merge(b, c)) must equal
// merge(merge(a, b), c) — and both must equal the flat three-way merge.
func TestMergeSnapshotsAssociative(t *testing.T) {
	mk := func(seed int, obs ...time.Duration) *Snapshot {
		r := NewRegistry()
		r.Counter("scanner/probes").Add(uint64(seed))
		r.Counter("wall/scanner/busy_ns").Add(uint64(seed) * 17)
		for _, d := range obs {
			r.Histogram("scanner/vlatency/daily|ticket").Observe(d)
		}
		return r.Snapshot()
	}
	a := mk(3, 2*time.Microsecond)
	b := mk(5, 900*time.Millisecond, 100*time.Hour)
	c := mk(11, 3*time.Microsecond, time.Minute)

	left := MergeSnapshots(MergeSnapshots(a, b), c)
	right := MergeSnapshots(a, MergeSnapshots(b, c))
	flat := MergeSnapshots(a, b, c)
	if !reflect.DeepEqual(left, right) {
		t.Fatalf("merge not associative:\n  (a·b)·c %+v\n  a·(b·c) %+v", left, right)
	}
	if !reflect.DeepEqual(left, flat) {
		t.Fatalf("nested merge differs from flat merge:\n  nested %+v\n  flat   %+v", left, flat)
	}
	// Identity: merging a single snapshot is a deep copy.
	solo := MergeSnapshots(a)
	if !reflect.DeepEqual(solo.Counters, a.Counters) || !reflect.DeepEqual(solo.Histograms, a.Histograms) {
		t.Fatalf("single-snapshot merge not an identity:\n  got  %+v\n  want %+v", solo, a)
	}
}

// TestLazyCounterHiddenUntilCounted: a counter resolved ahead of its
// events shows in snapshots only once it counts, while an eagerly
// created one shows at zero.
func TestLazyCounterHiddenUntilCounted(t *testing.T) {
	r := NewRegistry()
	lazy := r.LazyCounter("lazy")
	r.Counter("eager")
	lazy.Add(0)
	if _, ok := r.Snapshot().Counters["lazy"]; ok {
		t.Fatal("uncounted lazy counter in the snapshot")
	}
	if _, ok := r.Snapshot().Counters["eager"]; !ok {
		t.Fatal("eager counter missing at zero")
	}
	lazy.Inc()
	if got := r.Snapshot().Counters["lazy"]; got != 1 || r.Counter("lazy") != lazy {
		t.Fatalf("lazy counter = %d after one event, or not the registry's handle", got)
	}
	if (*Registry)(nil).LazyCounter("x") != nil {
		t.Fatal("nil registry must hand out nil counters")
	}
}

// TestPrefixCounters: suffix keying, zero omission, nil safety.
func TestPrefixCounters(t *testing.T) {
	r := NewRegistry()
	r.Counter(CounterErrorPrefix + "timeout").Add(3)
	r.Counter(CounterErrorPrefix + "dial").Add(0) // zero: omitted
	r.Counter("scanner/probes").Add(9)
	got := r.Snapshot().PrefixCounters(CounterErrorPrefix)
	want := map[string]uint64{"timeout": 3}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("PrefixCounters = %v, want %v", got, want)
	}
	if (*Snapshot)(nil).PrefixCounters("x") != nil {
		t.Fatal("nil snapshot must yield nil")
	}
}
