package study

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"tlsshortcuts/internal/simclock"
	"tlsshortcuts/internal/telemetry"
)

// TestScanDayTraceSpans checks the JSONL trace a campaign emits: one
// span per lifetime pass, per scan day, and for the cross-domain pass,
// with the schema fields the operator dashboards would key on.
func TestScanDayTraceSpans(t *testing.T) {
	var trace bytes.Buffer
	o := Options{ListSize: 60, Days: 3, Seed: 7, Workers: 4, Trace: &trace}
	if _, err := Run(o); err != nil {
		t.Fatalf("Run: %v", err)
	}
	spans, err := telemetry.DecodeSpans(&trace)
	if err != nil {
		t.Fatalf("decode trace: %v", err)
	}
	wantPhases := []string{"lifetime-id", "lifetime-ticket", "day", "day", "day", "cross-domain"}
	if len(spans) != len(wantPhases) {
		t.Fatalf("got %d spans, want %d: %+v", len(spans), len(wantPhases), spans)
	}
	for i, s := range spans {
		if s.Phase != wantPhases[i] {
			t.Fatalf("span %d phase = %q, want %q", i, s.Phase, wantPhases[i])
		}
		if s.Days != o.Days || s.Workers != o.Workers {
			t.Fatalf("span %d carries days=%d workers=%d, want %d/%d", i, s.Days, s.Workers, o.Days, o.Workers)
		}
		if s.Handshakes == 0 {
			t.Fatalf("span %d recorded no handshakes: %+v", i, s)
		}
		if s.Phase == "day" {
			if want := i - 2; s.Day != want {
				t.Fatalf("span %d day = %d, want %d", i, s.Day, want)
			}
			// Scan day d runs with the virtual clock at start + d·24h.
			wantDate := simclock.Epoch.Add(time.Duration(s.Day) * 24 * time.Hour).Format(time.RFC3339)
			if s.VirtualDate != wantDate {
				t.Fatalf("span %d virtual date = %q, want %q", i, s.VirtualDate, wantDate)
			}
		} else if s.Day != -1 {
			t.Fatalf("non-day span %d has day %d", i, s.Day)
		}
	}
}

// TestReportRenderingDeterministic is the satellite's regression test:
// the failure table and the telemetry section must render identically
// across calls — Go randomizes map iteration order, so any unsorted map
// walk in either renderer fails this within a few repetitions.
func TestReportRenderingDeterministic(t *testing.T) {
	ds := &Dataset{
		ListSize: 10, Days: 3, TrustedCore: []string{"a.example", "b.example"},
		Operators: map[string]string{"a.example": "opA", "b.example": "opB"},
		Failures: []FailureCount{
			{Scan: "lifetime-ticket", Class: "timeout", Count: 2},
			{Scan: "ticket", Class: "dial", Count: 7},
			{Scan: "ticket-pair", Class: "reset", Count: 1},
		},
	}
	rep := BuildReport(ds)

	reg := telemetry.NewRegistry()
	for _, n := range []string{
		"simnet/dials", "scanner/probes", "wall/scanner/busy_ns",
		"ticket/open_ok", "session/cache_hit", "keyex/reuse_lookups",
		"scanner/errors/timeout", "simnet/faults/refuse", "study/days_completed",
	} {
		reg.Counter(n).Add(uint64(len(n)))
	}
	reg.Histogram("scanner/vlatency/daily|ticket").Observe(250 * time.Millisecond)
	reg.Histogram("wall/scanner/latency/daily|ticket").Observe(80 * time.Microsecond)
	snap := reg.Snapshot()

	table := rep.FailureTable()
	section := TelemetrySection(snap)
	for i := 0; i < 25; i++ {
		if got := rep.FailureTable(); got != table {
			t.Fatalf("FailureTable not deterministic:\n%s\nvs\n%s", table, got)
		}
		if got := TelemetrySection(snap); got != section {
			t.Fatalf("TelemetrySection not deterministic:\n%s\nvs\n%s", section, got)
		}
	}
	// Alignment: the class column must start at the same offset in every
	// failure row, whatever the scan-name lengths.
	var cols []int
	for _, class := range []string{"timeout", "dial", "reset"} {
		for _, line := range strings.Split(strings.TrimRight(table, "\n"), "\n") {
			if i := strings.Index(line, " "+class+" "); i >= 0 {
				cols = append(cols, i)
			}
		}
	}
	if len(cols) != 3 {
		t.Fatalf("expected 3 failure rows in:\n%s", table)
	}
	for _, c := range cols[1:] {
		if c != cols[0] {
			t.Fatalf("failure rows not aligned (class column offsets %v):\n%s", cols, table)
		}
	}
	if !strings.Contains(section, "session/cache_hit") || !strings.Contains(section, "p50") {
		t.Fatalf("telemetry section missing expected content:\n%s", section)
	}
}
