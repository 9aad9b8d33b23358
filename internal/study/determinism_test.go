package study

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tlsshortcuts/internal/faults"
	"tlsshortcuts/internal/telemetry"
	"tlsshortcuts/internal/traffic"
)

var regen = flag.Bool("regen-golden", false, "rewrite the golden dataset hash")

// determinism campaign: small enough to run once per matrix row, large
// enough to exercise every scan type, resumption path, and cache.
var detOpts = Options{ListSize: 200, Days: 8, Seed: 7, Workers: 8}

var goldenPath = filepath.Join("testdata", "campaign_200x8_seed7.sha256")

// golden returns the committed hash of the determinism campaign's
// dataset.
func golden(t *testing.T) string {
	t.Helper()
	b, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read golden (regenerate with -regen-golden): %v", err)
	}
	return strings.TrimSpace(string(b))
}

func sha256Hex(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

func marshal(t *testing.T, v interface{}) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return b
}

// runAndHash runs a campaign and returns both the dataset and the hash
// of its serialization.
func runAndHash(t *testing.T, o Options) (*Dataset, string) {
	t.Helper()
	ds, err := Run(o)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return ds, sha256Hex(marshal(t, ds))
}

func datasetHash(t *testing.T, o Options) string {
	t.Helper()
	_, h := runAndHash(t, o)
	return h
}

// TestCampaignDeterminism is the golden-campaign matrix. Each row runs
// the 200×8 seed-7 campaign under one variation that must not show in
// the measured results — scheduling, attached observers, fault and
// traffic machinery — and checks the dataset against the hash
// committed in testdata (TestShardedCampaignMatchesGolden checks merged
// shard runs against the same hash). A mismatch means a change perturbed measured
// results; if the change is intentional, regenerate from the default
// row with:
//
//	go test ./internal/study -run TestCampaignDeterminism -regen-golden
func TestCampaignDeterminism(t *testing.T) {
	withOpts := func(edit func(*Options)) func(*testing.T) string {
		return func(t *testing.T) string {
			o := detOpts
			edit(&o)
			return datasetHash(t, o)
		}
	}
	rows := []struct {
		name string
		long bool // skipped under -short
		hash func(t *testing.T) string
	}{
		{name: "default", hash: withOpts(func(*Options) {})},
		// The worker count changes which worker runs which probe and in
		// what order probes interleave, never the probe's inputs; 3 and
		// 13 workers regroup the default 8's per-worker arenas.
		{name: "workers=3", long: true, hash: withOpts(func(o *Options) { o.Workers = 3 })},
		{name: "workers=13", long: true, hash: withOpts(func(o *Options) { o.Workers = 13 })},
		// Telemetry observes, never perturbs: a registry plus a JSONL
		// trace may not draw entropy, shift the virtual clock, or
		// reorder probes.
		{name: "telemetry", long: true, hash: func(t *testing.T) string {
			var trace bytes.Buffer
			o := detOpts
			o.Telemetry = telemetry.NewRegistry()
			o.Trace = &trace
			h := datasetHash(t, o)
			snap := o.Telemetry.Snapshot()
			if snap.Counters[telemetry.CounterProbes] == 0 {
				t.Fatal("enabled registry recorded no probes")
			}
			if snap.Counters["simnet/dials"] != snap.Counters[telemetry.CounterHandshakesStarted] {
				t.Fatalf("dials (%d) != handshakes started (%d)",
					snap.Counters["simnet/dials"], snap.Counters[telemetry.CounterHandshakesStarted])
			}
			if got := snap.Counters[telemetry.CounterDaysCompleted]; got != uint64(detOpts.Days) {
				t.Fatalf("days_completed = %d, want %d", got, detOpts.Days)
			}
			if trace.Len() == 0 {
				t.Fatal("trace writer received no spans")
			}
			return h
		}},
		// An explicitly supplied zero plan compiles to no plan: plan
		// lookup, taxonomy fields, deadline arming, and retry scaffolding
		// are unobservable on a clean network.
		{name: "empty_fault_plan", hash: withOpts(func(o *Options) { o.Faults = &faults.Options{Seed: 99} })},
		// Simulated users share the world but not the scanner's entropy
		// or dial sequences: stripping the Traffic section leaves the
		// scanner-measured bytes.
		{name: "traffic_stripped", hash: func(t *testing.T) string {
			o := detOpts
			o.Traffic = &traffic.Options{Users: 40}
			ds := runTraffic(t, o)
			if ds.Traffic == nil || ds.Traffic.Conns() == 0 {
				t.Fatal("traffic plane did not run")
			}
			ds.Traffic = nil
			return sha256Hex(marshal(t, ds))
		}},
	}

	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			if r.long && testing.Short() {
				t.Skip("long row")
			}
			got := r.hash(t)
			if *regen && r.name == "default" {
				if err := os.WriteFile(goldenPath, []byte(got+"\n"), 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("regenerated %s", goldenPath)
				return
			}
			if want := golden(t); got != want {
				t.Fatalf("dataset drifted from golden:\n  got  %s\n  want %s", got, want)
			}
		})
	}
}
