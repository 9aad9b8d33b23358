package study

import (
	"encoding/json"
	"sync"
	"testing"

	"tlsshortcuts/internal/faults"
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

// TestTwoWorldsInOneProcess builds and scans two different campaigns at
// once and requires each to hash as it does alone. Each connection's
// hand-off lives in its own world's pipe, and the memos that stay
// process-wide — keyex's epoch cache and reuse scalars, the fixed client
// ECDHE and DHE keys, SNI interning — hold pure functions of their keys,
// so neither world can read a value of the other's. Campaigns that
// attach a registry or traffic are left out: telemetry.SetGlobal is
// still process-wide.
func TestTwoWorldsInOneProcess(t *testing.T) {
	opts := []Options{detOpts, hostileOpts()}
	together := make([]string, len(opts))
	errs := make([]error, len(opts))
	var wg sync.WaitGroup
	for i, o := range opts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ds, err := Run(o)
			if err == nil {
				var b []byte
				b, err = json.Marshal(ds)
				together[i] = sha256Hex(b)
			}
			errs[i] = err
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	alone := []string{golden(t), datasetHash(t, opts[1])}
	for i, name := range []string{"golden", "hostile"} {
		if together[i] != alone[i] {
			t.Errorf("%s campaign hashed %s beside the other, %s alone", name, together[i], alone[i])
		}
	}
}
