package study

import (
	"fmt"
	"testing"

	"tlsshortcuts/internal/population"
	"tlsshortcuts/internal/scanner"
)

// shardedHash runs the determinism campaign as n independent shards,
// merges them, and returns the merged dataset's hash.
func shardedHash(t *testing.T, o Options, n int) string {
	t.Helper()
	shards := make([]*Dataset, n)
	for i := 0; i < n; i++ {
		so := o
		so.Shard = &ShardSpec{Index: i, Count: n}
		ds, err := Run(so)
		if err != nil {
			t.Fatalf("Run shard %d/%d: %v", i, n, err)
		}
		shards[i] = ds
	}
	merged, err := MergeDatasets(shards...)
	if err != nil {
		t.Fatalf("MergeDatasets(%d): %v", n, err)
	}
	return sha256Hex(marshal(t, merged))
}

// TestShardedCampaignMatchesGolden splits the 200×8 seed-7 campaign into
// 1, 3, and 5 independently-run shards and checks that the merged
// dataset reproduces the golden hash of the monolithic run. Every shard
// builds the full world but scans only its round-robin rank slice, so
// this pins the whole determinism argument — per-domain entropy keying,
// label-keyed fault decisions, per-domain backend sequences, and the
// merge's canonicalization — in one check.
func TestShardedCampaignMatchesGolden(t *testing.T) {
	want := golden(t)
	for _, n := range []int{1, 3, 5} {
		n := n
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) {
			if got := shardedHash(t, detOpts, n); got != want {
				t.Fatalf("merged %d-shard dataset drifted from golden:\n  got  %s\n  want %s", n, got, want)
			}
		})
	}
}

// TestShardWorkerIndependence re-runs one shard with a different worker
// count: a shard's dataset, like the monolithic one, must not depend on
// scheduling.
func TestShardWorkerIndependence(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two shard campaigns")
	}
	run := func(workers int) string {
		o := detOpts
		o.Workers = workers
		o.Shard = &ShardSpec{Index: 1, Count: 3}
		return datasetHash(t, o)
	}
	if a, b := run(8), run(3); a != b {
		t.Fatalf("shard dataset depends on worker count:\n  w8 %s\n  w3 %s", a, b)
	}
}

// TestPopulationShard pins the partition function's contract: disjoint,
// exhaustive, order-preserving, and representative (round-robin).
func TestPopulationShard(t *testing.T) {
	list := []string{"a", "b", "c", "d", "e", "f", "g"}
	seen := map[string]int{}
	for i := 0; i < 3; i++ {
		part := population.Shard(list, i, 3)
		for _, d := range part {
			seen[d]++
		}
	}
	if len(seen) != len(list) {
		t.Fatalf("shards are not exhaustive: %d of %d domains", len(seen), len(list))
	}
	for d, n := range seen {
		if n != 1 {
			t.Fatalf("domain %q in %d shards", d, n)
		}
	}
	got := population.Shard(list, 1, 3)
	want := []string{"b", "e"}
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("shard 1/3 = %v, want %v", got, want)
	}
	if whole := population.Shard(list, 0, 1); len(whole) != len(list) {
		t.Fatalf("shard 0/1 must be the whole list")
	}
}

// mkShard builds a minimal well-formed shard dataset for merge tests.
func mkShard(index, count int) *Dataset {
	return &Dataset{
		ListSize:    200,
		Days:        8,
		Seed:        7,
		ScaleFactor: 0.0002,
		TrustedCore: []string{"a.example", "b.example"},
		Operators:   map[string]string{"a.example": "opA", "b.example": "opB"},
		Ranks:       map[string]int{"a.example": 1, "b.example": 2},
		STEKSpans:   map[string]map[string]uint64{},
		DHESpans:    map[string]map[string]uint64{},
		ECDHESpans:  map[string]map[string]uint64{},
		Shard:       &ShardSpec{Index: index, Count: count},
	}
}

func TestMergeDatasetsEdgeCases(t *testing.T) {
	t.Run("empty shard", func(t *testing.T) {
		a, b := mkShard(0, 2), mkShard(1, 2)
		a.STEKSpans["a.example"] = map[string]uint64{"k1": 0b11}
		a.TicketSnapshot = Snapshot{Scanned: 1, Trusted: 1, Support: 1}
		// b observed nothing at all — merge must still succeed and carry
		// a's data through unchanged.
		m, err := MergeDatasets(a, b)
		if err != nil {
			t.Fatalf("merge with empty shard: %v", err)
		}
		if m.TicketSnapshot.Scanned != 1 || m.STEKSpans["a.example"]["k1"] != 0b11 {
			t.Fatalf("empty shard perturbed merge: %+v", m.TicketSnapshot)
		}
		if m.Shard != nil {
			t.Fatal("merged dataset must clear the shard spec")
		}
	})

	t.Run("single-domain shard", func(t *testing.T) {
		a, b := mkShard(0, 2), mkShard(1, 2)
		a.IDLifetime = []scanner.ProbeResult{{Domain: "b.example", OK: true}}
		b.IDLifetime = []scanner.ProbeResult{{Domain: "a.example", OK: true}}
		m, err := MergeDatasets(a, b)
		if err != nil {
			t.Fatal(err)
		}
		// Rank order, not shard order.
		if m.IDLifetime[0].Domain != "a.example" || m.IDLifetime[1].Domain != "b.example" {
			t.Fatalf("lifetime rows not in rank order: %+v", m.IDLifetime)
		}
	})

	t.Run("overlapping domains rejected", func(t *testing.T) {
		a, b := mkShard(0, 2), mkShard(1, 2)
		a.DHESpans["a.example"] = map[string]uint64{"v": 1}
		b.DHESpans["a.example"] = map[string]uint64{"v": 2}
		if _, err := MergeDatasets(a, b); err == nil {
			t.Fatal("want overlap rejection, got nil error")
		}
		a, b = mkShard(0, 2), mkShard(1, 2)
		a.MissedDays = map[string]uint64{"a.example": 1}
		b.MissedDays = map[string]uint64{"a.example": 2}
		if _, err := MergeDatasets(a, b); err == nil {
			t.Fatal("want missed-days overlap rejection, got nil error")
		}
	})

	t.Run("group union across shards", func(t *testing.T) {
		a, b := mkShard(0, 2), mkShard(1, 2)
		// Shard a's initiator linked {a,x}; shard b's linked {b,x}: the
		// merged component must be the transitive closure {a,b,x}.
		a.CacheGroups = [][]string{{"a.example", "x.example"}}
		b.CacheGroups = [][]string{{"b.example", "x.example"}}
		m, err := MergeDatasets(a, b)
		if err != nil {
			t.Fatal(err)
		}
		if len(m.CacheGroups) != 1 || len(m.CacheGroups[0]) != 3 {
			t.Fatalf("cache groups not transitively merged: %v", m.CacheGroups)
		}
		// STEK groups recompute from merged spans: the same secret ID on
		// domains in different shards must union.
		a, b = mkShard(0, 2), mkShard(1, 2)
		a.STEKSpans["a.example"] = map[string]uint64{"shared": 1}
		b.STEKSpans["b.example"] = map[string]uint64{"shared": 1}
		m, err = MergeDatasets(a, b)
		if err != nil {
			t.Fatal(err)
		}
		if len(m.STEKGroups) != 1 || len(m.STEKGroups[0]) != 2 {
			t.Fatalf("STEK groups not unioned across shards: %v", m.STEKGroups)
		}
	})

	t.Run("mismatched campaigns rejected", func(t *testing.T) {
		a, b := mkShard(0, 2), mkShard(1, 2)
		b.Seed = 8
		if _, err := MergeDatasets(a, b); err == nil {
			t.Fatal("want seed mismatch rejection")
		}
		a, b = mkShard(0, 2), mkShard(1, 2)
		b.Days = 9
		if _, err := MergeDatasets(a, b); err == nil {
			t.Fatal("want days mismatch rejection")
		}
	})

	t.Run("incomplete or duplicate shard sets rejected", func(t *testing.T) {
		if _, err := MergeDatasets(mkShard(0, 2)); err == nil {
			t.Fatal("want missing-shard rejection")
		}
		if _, err := MergeDatasets(mkShard(0, 2), mkShard(0, 2)); err == nil {
			t.Fatal("want duplicate-index rejection")
		}
		if _, err := MergeDatasets(mkShard(0, 1), mkShard(1, 2)); err == nil {
			t.Fatal("want count-mismatch rejection")
		}
		mono := mkShard(0, 1)
		mono.Shard = nil
		if _, err := MergeDatasets(mono); err == nil {
			t.Fatal("want monolithic-dataset rejection")
		}
	})

	t.Run("failure tallies sum and sort", func(t *testing.T) {
		a, b := mkShard(0, 2), mkShard(1, 2)
		a.Failures = []FailureCount{{Scan: "ticket", Class: "timeout", Count: 2}}
		b.Failures = []FailureCount{
			{Scan: "dhe", Class: "reset", Count: 1},
			{Scan: "ticket", Class: "timeout", Count: 3},
		}
		m, err := MergeDatasets(a, b)
		if err != nil {
			t.Fatal(err)
		}
		want := []FailureCount{
			{Scan: "dhe", Class: "reset", Count: 1},
			{Scan: "ticket", Class: "timeout", Count: 5},
		}
		if len(m.Failures) != 2 || m.Failures[0] != want[0] || m.Failures[1] != want[1] {
			t.Fatalf("failures = %+v, want %+v", m.Failures, want)
		}
	})

	t.Run("xd stats", func(t *testing.T) {
		a, b := mkShard(0, 2), mkShard(1, 2)
		a.XDStats = &scanner.XDStats{Probed: 10, Sessioned: 8}
		b.XDStats = &scanner.XDStats{Probed: 9, Sessioned: 7, ProbeFailed: 2}
		m, err := MergeDatasets(a, b)
		if err != nil {
			t.Fatal(err)
		}
		if m.XDStats == nil || m.XDStats.Probed != 19 || m.XDStats.ProbeFailed != 2 {
			t.Fatalf("xd stats = %+v", m.XDStats)
		}
		// All clean: the monolithic run would omit the stats entirely.
		a, b = mkShard(0, 2), mkShard(1, 2)
		a.XDStats = &scanner.XDStats{Probed: 10, Sessioned: 8}
		b.XDStats = &scanner.XDStats{Probed: 9, Sessioned: 7}
		m, err = MergeDatasets(a, b)
		if err != nil {
			t.Fatal(err)
		}
		if m.XDStats != nil {
			t.Fatalf("clean merge must omit XDStats, got %+v", m.XDStats)
		}
		// One shard failed, another lost its denominators: refuse rather
		// than emit a wrong monolithic count.
		a, b = mkShard(0, 2), mkShard(1, 2)
		a.XDStats = &scanner.XDStats{Probed: 10, InitFailed: 1}
		if _, err := MergeDatasets(a, b); err == nil {
			t.Fatal("want missing-XDStats rejection when a sibling failed")
		}
	})
}
