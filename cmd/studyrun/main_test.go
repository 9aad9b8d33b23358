package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"tlsshortcuts/internal/obsv"
	"tlsshortcuts/internal/study"
	"tlsshortcuts/internal/telemetry"
)

// studyOptions is a small, fast campaign shape shared by the sink tests.
func studyOptions(t *testing.T) study.Options {
	t.Helper()
	return study.Options{
		ListSize: 60,
		Days:     4,
		Seed:     7,
		Workers:  4,
	}
}

// TestAbortFinalizesSinks is the lost-on-error telemetry regression
// test: a campaign that dies mid-run (forced via the abortAfterDay fault
// hook) must still leave a journal that records the last finished phase
// and ends with campaign_aborted carrying the failed campaign's
// telemetry. Before runStudy existed, studyrun's log.Fatalf path dropped
// the bufio-buffered tail of the journal.
func TestAbortFinalizesSinks(t *testing.T) {
	dir := t.TempDir()
	journalPath := filepath.Join(dir, "flight.jsonl")

	cfg := runConfig{
		opts:          studyOptions(t),
		out:           filepath.Join(dir, "dataset.json"),
		journalPath:   journalPath,
		abortAfterDay: 1, // die after day 1 of 4, mid-campaign
	}
	err := runStudy(cfg)
	if err == nil {
		t.Fatal("runStudy succeeded; want the injected day-1 abort")
	}
	if !strings.Contains(err.Error(), "injected abort after day 1") {
		t.Fatalf("unexpected abort error: %v", err)
	}
	if _, statErr := os.Stat(cfg.out); statErr == nil {
		t.Error("aborted campaign wrote a dataset file")
	}

	// The journal must validate (contiguous seqs, campaign_start first,
	// single terminal event), keep the day-1 phase_end (the abort
	// trigger), and end with campaign_aborted naming the failure.
	events, readErr := obsv.ReadJournal(journalPath)
	if readErr != nil {
		t.Fatalf("journal not parseable after abort: %v", readErr)
	}
	if valErr := obsv.ValidateJournal(events); valErr != nil {
		t.Fatalf("journal invalid after abort: %v", valErr)
	}
	last := events[len(events)-1]
	if last.Type != obsv.EventCampaignAborted {
		t.Fatalf("journal ends with %s, want %s", last.Type, obsv.EventCampaignAborted)
	}
	if !strings.Contains(last.Err, "injected abort after day 1") {
		t.Errorf("campaign_aborted err = %q, want the injected abort reason", last.Err)
	}
	if prev := events[len(events)-2]; prev.Type != obsv.EventPhaseEnd || prev.Phase != "day" || prev.Day != 1 {
		t.Errorf("campaign_aborted follows %s %s day %d, want the day-1 phase_end", prev.Type, prev.Phase, prev.Day)
	}

	// The telemetry snapshot of the failed campaign rides on the
	// terminal event.
	if last.Telemetry == nil || last.Telemetry.Counters[telemetry.CounterProbes] == 0 {
		t.Error("campaign_aborted has no probes in its snapshot; pre-abort counters were lost")
	}
}

// TestRunStudyCompletes pins the happy path through the same plumbing
// with the obsv server listening: journal ends with campaign_end carrying
// the dataset hash and the final snapshot, and the server shuts down
// without logging an error.
func TestRunStudyCompletes(t *testing.T) {
	dir := t.TempDir()
	journalPath := filepath.Join(dir, "flight.jsonl")
	var (
		mu   sync.Mutex
		logs []string
	)
	cfg := runConfig{
		opts:        studyOptions(t),
		out:         filepath.Join(dir, "dataset.json"),
		journalPath: journalPath,
		obsvAddr:    "127.0.0.1:0",
		logf: func(format string, args ...interface{}) {
			mu.Lock()
			defer mu.Unlock()
			logs = append(logs, fmt.Sprintf(format, args...))
		},
	}
	if err := runStudy(cfg); err != nil {
		t.Fatalf("runStudy: %v", err)
	}
	mu.Lock()
	for _, line := range logs {
		if strings.HasPrefix(line, "obsv server:") {
			t.Errorf("normal exit logged a server error: %q", line)
		}
	}
	mu.Unlock()
	events, err := obsv.ReadJournal(journalPath)
	if err != nil {
		t.Fatalf("reading journal: %v", err)
	}
	if err := obsv.ValidateJournal(events); err != nil {
		t.Fatalf("journal invalid: %v", err)
	}
	last := events[len(events)-1]
	if last.Type != obsv.EventCampaignEnd {
		t.Fatalf("journal ends with %s, want %s", last.Type, obsv.EventCampaignEnd)
	}
	if last.DatasetSHA256 == "" {
		t.Fatal("campaign_end missing the dataset hash")
	}
	if last.Telemetry == nil || last.Telemetry.Counters[telemetry.CounterProbes] == 0 {
		t.Error("campaign_end missing the final telemetry snapshot")
	}
}
