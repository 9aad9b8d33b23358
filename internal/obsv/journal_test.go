package obsv

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"tlsshortcuts/internal/telemetry"
)

func testJournal() (*Journal, *bytes.Buffer) {
	var buf bytes.Buffer
	j := NewJournal(&buf)
	j.now = func() time.Time { return time.Unix(1456900000, 0).UTC() }
	return j, &buf
}

// terminalSnapshot is a final registry snapshot with one deterministic
// and one wall/ metric of each kind.
func terminalSnapshot() *telemetry.Snapshot {
	reg := telemetry.NewRegistry()
	reg.Counter("scanner/probes").Add(42)
	reg.Counter("wall/scanner/busy_ns").Add(9000)
	reg.Histogram("scanner/backoff/ticket").Observe(3 * time.Second)
	reg.Histogram("wall/scanner/latency/ticket").Observe(time.Millisecond)
	return reg.Snapshot()
}

func phaseEvent(phase string, day int, start bool) telemetry.PhaseEvent {
	return telemetry.PhaseEvent{
		Span:  telemetry.Span{Phase: phase, Day: day, Days: 2, VirtualDate: fmt.Sprintf("2016-03-%02dT00:00:00Z", 2+day)},
		Start: start,
	}
}

// TestJournalRoundTrip writes a healthy campaign's event sequence and
// checks it decodes, validates, carries contiguous sequence numbers, and
// keeps the terminal telemetry snapshot, whose wall/ metrics only the
// deterministic view strips.
func TestJournalRoundTrip(t *testing.T) {
	j, buf := testJournal()
	j.CampaignStart(200, 2, 7, 8, "")
	for day := 0; day < 2; day++ {
		if err := j.OnPhase(phaseEvent("day", day, true)); err != nil {
			t.Fatalf("OnPhase start: %v", err)
		}
		end := phaseEvent("day", day, false)
		end.FailureClasses = map[string]uint64{"timeout": uint64(day + 1)}
		end.STEKRotations = 3
		if err := j.OnPhase(end); err != nil {
			t.Fatalf("OnPhase end: %v", err)
		}
	}
	snap := terminalSnapshot()
	j.CampaignEnd("abc123", snap)
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	events, err := DecodeEvents(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("DecodeEvents: %v", err)
	}
	if err := ValidateJournal(events); err != nil {
		t.Fatalf("ValidateJournal: %v", err)
	}
	if len(events) != 6 {
		t.Fatalf("got %d events, want 6", len(events))
	}
	if events[0].Type != EventCampaignStart || events[0].ListSize != 200 || events[0].Seed != 7 {
		t.Errorf("bad campaign_start: %+v", events[0])
	}
	last := events[len(events)-1]
	if last.Type != EventCampaignEnd || last.DatasetSHA256 != "abc123" {
		t.Errorf("bad campaign_end: %+v", last)
	}
	if events[4].FailureClasses["timeout"] != 2 {
		t.Errorf("phase_end lost failure classes: %+v", events[4])
	}
	if !reflect.DeepEqual(last.Telemetry, snap) {
		t.Errorf("terminal snapshot changed in the round trip:\n got  %+v\n want %+v", last.Telemetry, snap)
	}
	view := DeterministicView(events)
	if got, want := view[len(view)-1].Telemetry, snap.Deterministic(); !reflect.DeepEqual(got, want) {
		t.Errorf("deterministic view kept wall/ metrics:\n got  %+v\n want %+v", got, want)
	}
	if !reflect.DeepEqual(last.Telemetry, snap) {
		t.Error("DeterministicView mutated the journal it was given")
	}

	// The in-memory tail mirrors the file.
	tail := j.Tail(3)
	if len(tail) != 3 || tail[2].Type != EventCampaignEnd {
		t.Errorf("Tail(3) = %+v", tail)
	}
}

// TestJournalValidation exercises the invariant checks replay depends on.
func TestJournalValidation(t *testing.T) {
	j, buf := testJournal()
	j.CampaignStart(10, 1, 1, 1, "")
	j.OnPhase(phaseEvent("day", 0, true))
	j.OnPhase(phaseEvent("day", 0, false))
	j.CampaignEnd("h", nil)
	j.Close()
	good, err := DecodeEvents(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name   string
		mutate func([]Event) []Event
		want   string
	}{
		{"empty", func(e []Event) []Event { return nil }, "empty"},
		{"truncated head", func(e []Event) []Event { return e[1:] }, "seq"},
		{"gap", func(e []Event) []Event { return append(append([]Event{}, e[0]), e[2:]...) }, "seq"},
		{"terminal mid-journal", func(e []Event) []Event {
			out := append([]Event{}, e...)
			out[1], out[3] = out[3], out[1]
			out[1].Seq, out[3].Seq = 1, 3
			return out
		}, "terminal"},
	}
	for _, tc := range cases {
		evs := tc.mutate(append([]Event{}, good...))
		err := ValidateJournal(evs)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want mention of %q", tc.name, err, tc.want)
		}
	}
	if err := ValidateJournal(good); err != nil {
		t.Errorf("good journal rejected: %v", err)
	}
}

// TestJournalVersionGate: events from a newer schema are rejected, not
// misread.
func TestJournalVersionGate(t *testing.T) {
	line := fmt.Sprintf(`{"v":%d,"seq":0,"type":"campaign_start","day":-1}`, JournalVersion+1)
	_, err := DecodeEvents(strings.NewReader(line + "\n"))
	if err == nil || !strings.Contains(err.Error(), "newer") {
		t.Fatalf("newer-version event not rejected: %v", err)
	}
}

// TestJournalAbortFlushes: Abort records campaign_aborted and the flush
// point makes the file complete without Close.
func TestJournalAbortFlushes(t *testing.T) {
	j, buf := testJournal()
	j.CampaignStart(10, 1, 1, 1, "")
	j.Abort(errors.New("boom"), terminalSnapshot())
	// No Close: the terminal flush point alone must leave the file whole.
	events, err := DecodeEvents(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("DecodeEvents: %v", err)
	}
	if err := ValidateJournal(events); err != nil {
		t.Fatalf("ValidateJournal: %v", err)
	}
	last := events[len(events)-1]
	if last.Type != EventCampaignAborted || last.Err != "boom" {
		t.Errorf("bad campaign_aborted: %+v", last)
	}
	if last.Telemetry == nil || last.Telemetry.Counters["scanner/probes"] != 42 {
		t.Errorf("campaign_aborted lost the failed campaign's snapshot: %+v", last.Telemetry)
	}
}

// TestMergeJournalsDeterministic checks additive merging, the
// normalization of shard-variant fields (terminal snapshot included), and
// campaign-mismatch errors.
func TestMergeJournalsDeterministic(t *testing.T) {
	mkShard := func(shard string, fails uint64, hash string) []Event {
		j, buf := testJournal()
		j.SetShard(shard)
		j.CampaignStart(100, 1, 7, 4, shard)
		j.OnPhase(phaseEvent("day", 0, true))
		end := phaseEvent("day", 0, false)
		end.Span.Domains = 50
		end.Span.Handshakes = 10 * fails
		end.FailureClasses = map[string]uint64{"reset": fails}
		end.STEKRotations = 7 // per-process observation, must not sum
		j.OnPhase(end)
		j.CampaignEnd(hash, terminalSnapshot())
		j.Close()
		evs, err := DecodeEvents(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("decode shard %s: %v", shard, err)
		}
		return evs
	}
	a := mkShard("0/2", 2, "hash-a")
	b := mkShard("1/2", 3, "hash-b")
	merged, err := MergeJournalsDeterministic(a, b)
	if err != nil {
		t.Fatalf("merge: %v", err)
	}
	if err := ValidateJournal(merged); err != nil {
		t.Fatalf("merged journal invalid: %v", err)
	}
	var end *Event
	for i := range merged {
		if merged[i].Type == EventPhaseEnd {
			end = &merged[i]
		}
	}
	if end == nil {
		t.Fatal("no phase_end in merged journal")
	}
	if end.Domains != 100 || end.Handshakes != 50 || end.FailureClasses["reset"] != 5 {
		t.Errorf("additive fields wrong: %+v", end)
	}
	if end.STEKRotations != 0 || end.Shard != "" {
		t.Errorf("shard-variant fields not normalized: %+v", end)
	}
	if last := merged[len(merged)-1]; last.DatasetSHA256 != "" || last.Telemetry != nil {
		t.Errorf("per-shard dataset hash or snapshot survived the merge: %+v", last)
	}
	if a[len(a)-1].Telemetry == nil {
		t.Error("merge cleared the snapshot in its input journal")
	}
	for i, ev := range merged {
		if ev.Wall != "" || ev.WallNanos != 0 || ev.Workers != 0 {
			t.Errorf("event %d kept wall-dependent fields: %+v", i, ev)
		}
	}

	// A shard from a different campaign is refused.
	alien := mkShard("0/2", 2, "hash-c")
	alien[0].Seed = 99
	if _, err := MergeJournalsDeterministic(a, alien); err == nil {
		t.Error("merge accepted journals from different campaigns")
	}
}
