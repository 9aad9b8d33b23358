package study

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// samplePeakHeap runs fn while a background sampler records the largest
// live heap (HeapAlloc) it sees, returning that peak in bytes. Coarse —
// GC pacing and sampling cadence both blur it — so callers compare
// peaks against each other with generous margins, not to exact bytes.
func samplePeakHeap(fn func()) uint64 {
	runtime.GC()
	var peak atomic.Uint64
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		var ms runtime.MemStats
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				runtime.ReadMemStats(&ms)
				for {
					old := peak.Load()
					if ms.HeapAlloc <= old || peak.CompareAndSwap(old, ms.HeapAlloc) {
						break
					}
				}
			}
		}
	}()
	fn()
	close(stop)
	<-done
	return peak.Load()
}

// TestCampaignMemoryBounded pins the incremental aggregator's residency:
// quadrupling the campaign's day count must not grow peak live heap
// proportionally, because each day's observations are folded into
// aggregates and their buffers reused. The aggregates grow with the
// distinct secrets seen — a server drawing a fresh key-exchange value
// daily adds a span row per day — so the bound is a 2x ratio against a
// 4x day increase; a regression back to retaining per-day slices would
// blow well past it.
func TestCampaignMemoryBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two campaigns")
	}
	run := func(days int) uint64 {
		var ds *Dataset
		peak := samplePeakHeap(func() {
			var err error
			ds, err = Run(Options{ListSize: 200, Days: days, Seed: 7, Workers: 8})
			if err != nil {
				t.Fatalf("Run(%d days): %v", days, err)
			}
		})
		runtime.KeepAlive(ds)
		return peak
	}
	short := run(4)
	long := run(16)
	t.Logf("peak live heap: 4 days %d bytes, 16 days %d bytes", short, long)
	if long > 2*short {
		t.Fatalf("peak heap grows with days: 4d=%d 16d=%d (>2x)", short, long)
	}
}
