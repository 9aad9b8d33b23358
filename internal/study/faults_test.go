package study

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"tlsshortcuts/internal/faults"
	"tlsshortcuts/internal/obsv"
	"tlsshortcuts/internal/telemetry"
)

// TestFaultCampaignDeterministicAcrossWorkers checks the replay property
// under a fixed non-empty fault plan: 3 and 13 workers produce a
// byte-identical dataset and an identical deterministic flight-recorder
// journal (obsv.DeterministicView: every phase's counter deltas plus the
// final telemetry snapshot outside the wall/ prefix), because every
// fault decision, backend choice, retry backoff, and entropy stream keys
// on the probe's identity rather than on scheduling order. Counters and
// virtual-latency histograms outside the wall/ prefix are functions of
// (seed, fault plan, probe schedule), never of goroutine scheduling.
func TestFaultCampaignDeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two faulted campaigns")
	}
	fo := &faults.Options{Seed: 11, Refuse: 0.06, Reset: 0.03, Stall: 0.01, Flap: 0.05, Churn: 0.08, ChurnMaxDays: 3}
	base := Options{ListSize: 120, Days: 5, Seed: 7, ProbeTimeout: 120 * time.Millisecond, Faults: fo}

	var dsA *Dataset
	var hashes [2]string
	var views [2][]obsv.Event
	for i, workers := range []int{3, 13} {
		o := base
		o.Workers = workers
		o.Telemetry = telemetry.NewRegistry()
		var buf bytes.Buffer
		j := obsv.NewJournal(&buf)
		j.CampaignStart(o.ListSize, o.Days, o.Seed, o.Workers, "")
		o.Observer = j
		ds, h := runAndHash(t, o)
		j.CampaignEnd(h, o.Telemetry.Snapshot())
		if err := j.Close(); err != nil {
			t.Fatalf("journal: %v", err)
		}
		events, err := obsv.DecodeEvents(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if err := obsv.ValidateJournal(events); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			dsA = ds
		}
		hashes[i] = h
		views[i] = obsv.DeterministicView(events)
	}
	if hashes[0] != hashes[1] {
		t.Fatalf("same fault plan, different worker counts, different datasets:\n  3 workers  %s\n  13 workers %s", hashes[0], hashes[1])
	}
	if len(views[0]) != len(views[1]) {
		t.Fatalf("journal has %d events with 3 workers, %d with 13", len(views[0]), len(views[1]))
	}
	for i := range views[0] {
		if a, b := marshal(t, views[0][i]), marshal(t, views[1][i]); !bytes.Equal(a, b) {
			t.Fatalf("deterministic journal event %d differs across worker counts:\n  3 workers  %s\n  13 workers %s", i, a, b)
		}
	}
	snap := views[0][len(views[0])-1].Telemetry
	if snap == nil {
		t.Fatal("campaign_end carries no telemetry snapshot")
	}
	if snap.Counters["scanner/retries"] == 0 {
		t.Fatal("faulted campaign recorded no retries")
	}
	foundFault := false
	for name := range snap.Counters {
		if strings.HasPrefix(name, "simnet/faults/") {
			foundFault = true
		}
	}
	if !foundFault {
		t.Fatalf("no simnet fault-kind counters recorded: %v", snap.Counters)
	}

	if len(dsA.Failures) == 0 {
		t.Fatal("faulted campaign recorded no failures")
	}
	if dsA.FaultPlan == nil || dsA.FaultPlan.Seed != 11 {
		t.Fatalf("dataset did not record the fault plan: %+v", dsA.FaultPlan)
	}
	if len(dsA.MissedDays) == 0 {
		t.Fatal("faulted campaign recorded no missed ticket-scan days")
	}
	table := BuildReport(dsA).FailureTable()
	if !strings.Contains(table, "fault plan: seed 11") {
		t.Fatalf("failure table missing the fault plan line:\n%s", table)
	}
	if strings.Contains(table, "no scan failures recorded") {
		t.Fatalf("failure table claims a clean run:\n%s", table)
	}
}

// TestStalledDomainCampaignCompletes is the regression test for the
// worker-deadlock bug: a backend that accepts connections but never
// answers used to hang a campaign forever. With deadlines armed the
// campaign must finish, classify the domain's scans as timeouts, and
// drop it from the consistent core.
func TestStalledDomainCampaignCompletes(t *testing.T) {
	o := Options{
		ListSize:     200,
		Days:         2,
		Seed:         3,
		Workers:      8,
		ProbeTimeout: 100 * time.Millisecond,
		Retries:      -1,
		Faults:       &faults.Options{StallDomains: []string{"yahoo.com"}},
	}
	type result struct {
		ds  *Dataset
		err error
	}
	done := make(chan result, 1)
	go func() {
		ds, err := Run(o)
		done <- result{ds, err}
	}()
	var ds *Dataset
	select {
	case r := <-done:
		if r.err != nil {
			t.Fatalf("Run: %v", r.err)
		}
		ds = r.ds
	case <-time.After(120 * time.Second):
		t.Fatal("campaign with a stalled backend did not finish — scan deadlines not enforced")
	}

	const wantMask = uint64(1)<<0 | uint64(1)<<1
	if got := ds.MissedDays["yahoo.com"]; got != wantMask {
		t.Fatalf("MissedDays[yahoo.com] = %b, want %b (both days missed)", got, wantMask)
	}
	foundTimeout := false
	for _, f := range ds.Failures {
		if f.Scan == "ticket" && f.Class == string(faults.ClassTimeout) {
			foundTimeout = true
		}
	}
	if !foundTimeout {
		t.Fatalf("no (ticket, timeout) failure cell recorded: %+v", ds.Failures)
	}
	core := BuildReport(ds).ConsistentCore()
	for _, d := range core {
		if d == "yahoo.com" {
			t.Fatal("stalled domain survived into the consistent core")
		}
	}
	if len(core) == 0 {
		t.Fatal("consistent core is empty — healthy domains were dropped too")
	}
}
