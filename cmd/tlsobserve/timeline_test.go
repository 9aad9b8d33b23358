package main

import (
	"bytes"
	"fmt"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"tlsshortcuts/internal/obsv"
	"tlsshortcuts/internal/telemetry"
)

// writeTimelineFixture builds a synthetic but schema-faithful journal the
// way studyrun does — through the obsv.Journal observer API — with two
// scan days, a cross-domain pass, and (optionally) interleaved
// traffic-day phases.
func writeTimelineFixture(t *testing.T, path string, withTraffic bool) {
	t.Helper()
	j, err := obsv.CreateJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	j.CampaignStart(120, 2, 7, 4, "")
	date := func(day int) string {
		return time.Date(2016, 3, 2+day, 0, 0, 0, 0, time.UTC).Format(time.RFC3339)
	}
	end := func(phase string, day int, hs uint64, fails int, classes map[string]uint64) {
		span := telemetry.Span{
			Phase: phase, Day: day, Days: 2, VirtualDate: date(maxInt(day, 0)),
			Domains: 120, Failures: fails, Handshakes: hs,
			WallNanos: int64(5+day) * int64(time.Millisecond), Workers: 4,
		}
		_ = j.OnPhase(telemetry.PhaseEvent{Span: span, Start: true})
		_ = j.OnPhase(telemetry.PhaseEvent{Span: span, FailureClasses: classes})
	}
	for day := 0; day < 2; day++ {
		end("day", day, uint64(300+day), 0, nil)
		if withTraffic {
			end("traffic-day", day, uint64(40+day), 1,
				map[string]uint64{"timeout": 1})
		}
	}
	end("cross-domain", -1, 900, 0, nil)
	j.CampaignEnd("f00dfeed", &telemetry.Snapshot{Counters: map[string]uint64{telemetry.CounterProbes: 240}})
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func runTimelineToString(t *testing.T, paths ...string) string {
	t.Helper()
	var buf bytes.Buffer
	if err := runTimeline(&buf, paths); err != nil {
		t.Fatalf("runTimeline: %v", err)
	}
	return buf.String()
}

// TestTimelineTrafficLane renders a journal carrying traffic-day phases
// and checks the traffic plane gets its own lane: a "<key>:traffic"
// column, visit cells on the matching scan-day rows, "-" on rows with no
// traffic phase, and traffic failure classes folded into the error table.
func TestTimelineTrafficLane(t *testing.T) {
	dir := t.TempDir()
	p := filepath.Join(dir, "shard.jsonl")
	writeTimelineFixture(t, p, true)
	out := runTimelineToString(t, p)

	if !strings.Contains(out, "shard.jsonl:traffic") {
		t.Errorf("missing traffic lane header; output:\n%s", out)
	}
	for day := 0; day < 2; day++ {
		if want := fmt.Sprintf("vis=%d fail=1", 40+day); !strings.Contains(out, want) {
			t.Errorf("missing traffic cell %q for day %d; output:\n%s", want, day, out)
		}
	}
	// The cross-domain row has no matching traffic day: its traffic cell
	// must be the placeholder, and the traffic phase must never appear as
	// a scan row of its own.
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "cross-domain") && !strings.Contains(line, "-") {
			t.Errorf("cross-domain row lacks a placeholder traffic cell: %q", line)
		}
		if strings.HasPrefix(line, "traffic-day") {
			t.Errorf("traffic-day leaked into the scan rows: %q", line)
		}
	}
	if !strings.Contains(out, "timeout") {
		t.Errorf("traffic failure class missing from the error table; output:\n%s", out)
	}
}

// TestTimelineNoTrafficNoLane pins that a traffic-free journal renders
// exactly as before the traffic plane existed: no ":traffic" column.
func TestTimelineNoTrafficNoLane(t *testing.T) {
	dir := t.TempDir()
	p := filepath.Join(dir, "shard.jsonl")
	writeTimelineFixture(t, p, false)
	out := runTimelineToString(t, p)
	if strings.Contains(out, ":traffic") {
		t.Errorf("traffic lane rendered for a journal with no traffic phases:\n%s", out)
	}
	if !strings.Contains(out, "hs=300") {
		t.Errorf("day-0 scan cell missing; output:\n%s", out)
	}
}

// TestTimelineTrafficAcrossShards checks a mixed set — one journal with
// traffic, one without — keeps the scan lanes positionally aligned and
// adds the traffic lane only for the journal that ran traffic.
func TestTimelineTrafficAcrossShards(t *testing.T) {
	dir := t.TempDir()
	a := filepath.Join(dir, "a.jsonl")
	b := filepath.Join(dir, "b.jsonl")
	writeTimelineFixture(t, a, true)
	writeTimelineFixture(t, b, false)
	out := runTimelineToString(t, a, b)

	if !strings.Contains(out, "a.jsonl:traffic") {
		t.Errorf("journal a's traffic lane missing:\n%s", out)
	}
	if strings.Contains(out, "b.jsonl:traffic") {
		t.Errorf("journal b grew a traffic lane without traffic phases:\n%s", out)
	}
	if strings.Contains(out, "DIVERGED") {
		t.Errorf("scan lanes diverged once traffic phases were split out:\n%s", out)
	}
}
