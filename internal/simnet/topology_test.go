package simnet

import (
	"reflect"
	"sync"
	"testing"
)

// TestSameASSortedOnceAndShared pins SameAS's contract with the
// cross-domain probes: the AS's domains, the caller's own included,
// sorted; one shared list until the next Register into the AS, whose
// new sorted list leaves the lists handed out before it unchanged; and
// concurrent first calls after a Register agree.
func TestSameASSortedOnceAndShared(t *testing.T) {
	n := New()
	for _, d := range []string{"m.example", "c.example", "x.example", "a.example"} {
		n.Register(d, 7, []string{"ip-" + d})
	}
	n.Register("other.example", 8, []string{"ip-other"})

	got := n.SameAS("x.example")
	want := []string{"a.example", "c.example", "m.example", "x.example"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("SameAS = %v, want %v", got, want)
	}
	if again := n.SameAS("a.example"); &again[0] != &got[0] {
		t.Fatal("a second call sorted a fresh copy")
	}
	if l := n.SameAS("missing.example"); l != nil {
		t.Fatalf("unknown domain: %v", l)
	}

	n.Register("b.example", 7, []string{"ip-b.example"})
	want2 := []string{"a.example", "b.example", "c.example", "m.example", "x.example"}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if l := n.SameAS("c.example"); !reflect.DeepEqual(l, want2) {
				t.Errorf("after Register: SameAS = %v, want %v", l, want2)
			}
		}()
	}
	wg.Wait()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("a list handed out before the Register changed to %v", got)
	}
}
