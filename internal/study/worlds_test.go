package study

import (
	"encoding/json"
	"reflect"
	"sync"
	"testing"

	"tlsshortcuts/internal/faults"
	"tlsshortcuts/internal/telemetry"
)

// hostileOpts is the faulted weak-crypto campaign: the golden one cut to
// four days, with every fault kind but Stall.
func hostileOpts() Options {
	o := detOpts
	o.Days = 4
	o.WeakCrypto = true
	o.Faults = &faults.Options{Seed: 7, Refuse: 0.05, Reset: 0.02, Flap: 0.01, Churn: 0.05, ChurnMaxDays: 3}
	return o
}

// TestTwoWorldsInOneProcess builds and scans the golden, a traffic and
// the hostile campaign at once, each counting into its own registry, and
// requires each to hash and to count as it does alone. Each connection's
// hand-off lives in its own world's pipe, each registry reaches only its
// own world's terminators and clients, and the memos that stay
// process-wide — keyex's epoch cache and reuse scalars, the fixed client
// ECDHE and DHE keys, SNI interning — hold pure functions of their keys,
// so neither world can read a value or a count of the other's.
func TestTwoWorldsInOneProcess(t *testing.T) {
	names := []string{"golden", "traffic", "hostile"}
	opts := []Options{detOpts, trafficOpts(), hostileOpts()}
	run := func(o Options) (string, *telemetry.Snapshot, error) {
		o.Telemetry = telemetry.NewRegistry()
		ds, err := Run(o)
		if err != nil {
			return "", nil, err
		}
		b, err := json.Marshal(ds)
		return sha256Hex(b), o.Telemetry.Snapshot().Deterministic(), err
	}
	hashes := make([]string, len(opts))
	snaps := make([]*telemetry.Snapshot, len(opts))
	errs := make([]error, len(opts))
	var wg sync.WaitGroup
	for i, o := range opts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			hashes[i], snaps[i], errs[i] = run(o)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	for i, o := range opts {
		hash, snap, err := run(o)
		if err != nil {
			t.Fatal(err)
		}
		if hashes[i] != hash {
			t.Errorf("%s campaign hashed %s beside the others, %s alone", names[i], hashes[i], hash)
		}
		if i == 0 && hash != golden(t) {
			t.Errorf("golden campaign hashed %s, want the committed %s", hash, golden(t))
		}
		for name, v := range snap.Counters {
			if got := snaps[i].Counters[name]; got != v {
				t.Errorf("%s campaign counted %s = %d beside the others, %d alone", names[i], name, got, v)
			}
		}
		if len(snaps[i].Counters) != len(snap.Counters) || !reflect.DeepEqual(snaps[i].Histograms, snap.Histograms) {
			t.Errorf("%s campaign's deterministic snapshot beside the others differs from its own alone", names[i])
		}
	}
}
