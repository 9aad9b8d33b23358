package par

import (
	"fmt"
	"sync/atomic"
	"testing"
)

// TestForEachRunsEveryIndexOnce checks the pool's contract across
// empty, single-item, uneven and large inputs and worker counts below,
// near and above n: every index runs exactly once, and every worker slot
// handed to fn lies in [0, min(workers, n)).
func TestForEachRunsEveryIndexOnce(t *testing.T) {
	for _, n := range []int{0, 1, 7, 1000} {
		for _, workers := range []int{1, 2, 13} {
			t.Run(fmt.Sprintf("n=%d/workers=%d", n, workers), func(t *testing.T) {
				slots := min(workers, n)
				runs := make([]atomic.Int32, n)
				var badSlot atomic.Int32
				badSlot.Store(-1)
				ForEach(workers, n, func(w, i int) {
					if w < 0 || w >= slots {
						badSlot.Store(int32(w))
					}
					runs[i].Add(1)
				})
				if w := badSlot.Load(); w >= 0 {
					t.Fatalf("worker slot %d outside [0, %d)", w, slots)
				}
				for i := range runs {
					if c := runs[i].Load(); c != 1 {
						t.Fatalf("index %d ran %d times, want 1", i, c)
					}
				}
			})
		}
	}
}

// TestForEachSlotsAreExclusive checks that per-worker state indexed by
// the slot needs no lock: no two goroutines ever hold one slot at once.
// Under -race an unsynchronized per-slot counter would also be flagged.
func TestForEachSlotsAreExclusive(t *testing.T) {
	const workers, n = 4, 2000
	busy := make([]atomic.Bool, workers)
	counts := make([]int, workers)
	ForEach(workers, n, func(w, i int) {
		if !busy[w].CompareAndSwap(false, true) {
			t.Errorf("slot %d entered twice at once", w)
		}
		counts[w]++
		busy[w].Store(false)
	})
	total := 0
	for _, c := range counts {
		total += c
	}
	if total != n {
		t.Fatalf("per-slot counts sum to %d, want %d", total, n)
	}
}

// TestForEachInlineOrder checks that a single worker runs the loop in
// index order on the calling goroutine.
func TestForEachInlineOrder(t *testing.T) {
	var got []int
	ForEach(1, 5, func(w, i int) { got = append(got, i) })
	for i, v := range got {
		if v != i {
			t.Fatalf("inline order %v, want 0..4", got)
		}
	}
	if len(got) != 5 {
		t.Fatalf("inline ran %d items, want 5", len(got))
	}
}
