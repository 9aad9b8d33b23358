package study

import (
	"runtime"
	"runtime/metrics"
	"testing"
)

// liveHeap is a Trace writer that measures retained state the way the
// benchmark harness and bench_million_test.go do: study.Run writes a
// span line on its coordinating goroutine after each phase's workers
// have joined, and each write forces a collection and keeps the largest
// /gc/heap/live:bytes read. Sampling HeapAlloc instead would count
// whatever garbage GC pacing leaves uncollected.
type liveHeap struct {
	samples []metrics.Sample
	peak    uint64
}

func newLiveHeap() *liveHeap {
	return &liveHeap{samples: []metrics.Sample{{Name: "/gc/heap/live:bytes"}}}
}

func (l *liveHeap) collect() {
	runtime.GC()
	metrics.Read(l.samples)
	if v := l.samples[0].Value.Uint64(); v > l.peak {
		l.peak = v
	}
}

func (l *liveHeap) Write(p []byte) (int, error) {
	l.collect()
	return len(p), nil
}

// maxLiveHeapPerDomain bounds what the 16-day campaign adds to the live
// heap at its peak, per listed domain. The run adds about 11 KB per
// domain; before finished connections, kex-only scalars and expired
// sessions released their memory it added 33-47 KB.
const maxLiveHeapPerDomain = 24 << 10

// TestCampaignMemoryBounded pins the campaign's retained state. First,
// the incremental aggregator's residency: quadrupling the day count
// must not grow peak live heap proportionally, because each day's
// observations are folded into aggregates and their buffers reused. The
// aggregates grow with the distinct secrets seen — a server drawing a
// fresh key-exchange value daily adds a span row per day — so the bound
// is a 2x ratio against a 4x day increase; a regression back to
// retaining per-day slices would blow well past it. Second, a
// per-domain ceiling on what the long run adds to the live heap, which
// state the campaign strands (server connections the scheduler has not
// yet run down, unconsumed key-exchange scalars, every day's expired
// sessions) breaks even when it grows with both runs alike. The heap
// live before the run — package tables earlier tests in this process
// filled — is not the campaign's.
func TestCampaignMemoryBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two campaigns")
	}
	const domains = 200
	run := func(days int) (peak, added uint64) {
		heap := newLiveHeap()
		heap.collect()
		before := heap.peak
		ds, err := Run(Options{ListSize: domains, Days: days, Seed: 7, Workers: 8, Trace: heap})
		if err != nil {
			t.Fatalf("Run(%d days): %v", days, err)
		}
		heap.collect() // the finished dataset and world
		runtime.KeepAlive(ds)
		return heap.peak, heap.peak - before
	}
	short, _ := run(4)
	long, added := run(16)
	t.Logf("peak live heap: 4 days %d bytes, 16 days %d bytes, %d of them added by the run (%d per domain)",
		short, long, added, added/domains)
	if long > 2*short {
		t.Fatalf("peak heap grows with days: 4d=%d 16d=%d (>2x)", short, long)
	}
	if added > maxLiveHeapPerDomain*domains {
		t.Fatalf("16-day campaign added %d bytes of live heap, %d per domain, over the %d ceiling", added, added/domains, maxLiveHeapPerDomain)
	}
}
