package obsv

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
	"time"

	"tlsshortcuts/internal/telemetry"
)

// JournalVersion is the flight-recorder schema version every event
// carries. Readers reject events from a newer schema than they know;
// replay rules for the current version are in DESIGN.md §12.
const JournalVersion = 1

// Event types, in the order a healthy campaign emits them:
// campaign_start, then alternating phase_start/phase_end pairs, then
// exactly one terminal campaign_end (with the dataset hash) or
// campaign_aborted (with the error), either carrying the final telemetry
// snapshot.
const (
	EventCampaignStart   = "campaign_start"
	EventPhaseStart      = "phase_start"
	EventPhaseEnd        = "phase_end"
	EventCampaignEnd     = "campaign_end"
	EventCampaignAborted = "campaign_aborted"
)

// Event is one sequence-numbered line of the flight-recorder journal:
// the replayable record of what a campaign did. Fields are a superset
// of telemetry.Span's so a phase_end event carries the whole span plus
// the per-phase counter deltas (failure classes, injected faults, STEK
// rotations) attributed to the phase they happened in.
//
// Determinism contract: Wall, WallNanos, Utilization, Workers, and the
// wall/ metrics of Telemetry are scheduling- or wall-clock-dependent;
// everything else is a pure function of (seed, options, fault plan).
// DeterministicView strips exactly that set, and internal/study's
// faulted-campaign test pins that the stripped journal is identical
// across worker counts.
type Event struct {
	V    int    `json:"v"`
	Seq  uint64 `json:"seq"`
	Type string `json:"type"`
	// Wall is the wall-clock stamp (RFC 3339, nanoseconds) the event was
	// recorded at. Stripped from the deterministic view.
	Wall string `json:"wall,omitempty"`
	// Shard is "i/N" for a sharded campaign slice, "" for monolithic.
	Shard string `json:"shard,omitempty"`

	// Phase-identifying fields (phase_start and phase_end events).
	Phase       string `json:"phase,omitempty"`
	Day         int    `json:"day"`
	Days        int    `json:"days,omitempty"`
	VirtualDate string `json:"virtual_date,omitempty"`

	// Campaign-identifying fields (campaign_start).
	ListSize int   `json:"list_size,omitempty"`
	Seed     int64 `json:"seed,omitempty"`
	Workers  int   `json:"workers,omitempty"`

	// Phase results (phase_end).
	Domains        int               `json:"domains,omitempty"`
	Failures       int               `json:"failures,omitempty"`
	PairFailures   int               `json:"pair_failures,omitempty"`
	Handshakes     uint64            `json:"handshakes,omitempty"`
	Retries        uint64            `json:"retries,omitempty"`
	FailureClasses map[string]uint64 `json:"failure_classes,omitempty"`
	Faults         map[string]uint64 `json:"faults,omitempty"`
	STEKRotations  uint64            `json:"stek_rotations,omitempty"`
	WallNanos      int64             `json:"wall_ns,omitempty"`
	Utilization    float64           `json:"utilization,omitempty"`

	// Terminal fields: the dataset hash (campaign_end) or the abort
	// reason (campaign_aborted), and the campaign's final telemetry
	// snapshot (either terminal event). The snapshot is optional, so v1
	// readers that predate it decode the journal unchanged.
	DatasetSHA256 string              `json:"dataset_sha256,omitempty"`
	Err           string              `json:"err,omitempty"`
	Telemetry     *telemetry.Snapshot `json:"telemetry,omitempty"`
}

// Journal is the append-only flight recorder: a JSONL event log with
// explicit flush points (after campaign_start, after every phase_end,
// and at each terminal event) so the on-disk record is complete up to
// the last finished phase even if the process dies mid-campaign.
//
// Journal implements study.CampaignObserver structurally (OnPhase), and
// its observer path never fails the campaign: write errors are sticky
// and surface through Err/Close, not through the scan loop.
type Journal struct {
	mu     sync.Mutex
	w      *bufio.Writer
	c      io.Closer
	seq    uint64
	err    error
	closed bool
	tail   []Event // ring of the last tailSize events for /journal
	shard  string  // stamped on phase events; see SetShard
	now    func() time.Time
}

// tailSize bounds the in-memory event ring the /journal endpoint serves.
const tailSize = 256

// NewJournal wraps w in a flight recorder. The caller keeps ownership
// of w unless it is also an io.Closer, in which case Close closes it.
func NewJournal(w io.Writer) *Journal {
	j := &Journal{w: bufio.NewWriter(w), now: time.Now}
	if c, ok := w.(io.Closer); ok {
		j.c = c
	}
	return j
}

// CreateJournal opens (truncating) a journal file at path.
func CreateJournal(path string) (*Journal, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	return NewJournal(f), nil
}

// Record appends one event, assigning its schema version, sequence
// number, and wall stamp. Flush points: campaign_start, phase_end, and
// the terminal events flush through to the sink; phase_start events
// ride along with the next flush.
func (j *Journal) Record(ev Event) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return
	}
	ev.V = JournalVersion
	ev.Seq = j.seq
	ev.Wall = j.now().UTC().Format(time.RFC3339Nano)
	j.seq++
	if len(j.tail) < tailSize {
		j.tail = append(j.tail, ev)
	} else {
		copy(j.tail, j.tail[1:])
		j.tail[len(j.tail)-1] = ev
	}
	b, err := json.Marshal(ev)
	if err != nil {
		j.setErr(err)
		return
	}
	b = append(b, '\n')
	if _, err := j.w.Write(b); err != nil {
		j.setErr(err)
		return
	}
	switch ev.Type {
	case EventCampaignStart, EventPhaseEnd, EventCampaignEnd, EventCampaignAborted:
		j.setErr(j.w.Flush())
	}
}

// setErr keeps the first write error; callers hold j.mu.
func (j *Journal) setErr(err error) {
	if j.err == nil && err != nil {
		j.err = err
	}
}

// Err returns the first write error, if any. A campaign never aborts on
// journal write failure; operators check Err at the end.
func (j *Journal) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// Tail returns copies of the most recent n events (all of the retained
// ring when n <= 0 or exceeds it), oldest first.
func (j *Journal) Tail(n int) []Event {
	j.mu.Lock()
	defer j.mu.Unlock()
	if n <= 0 || n > len(j.tail) {
		n = len(j.tail)
	}
	out := make([]Event, n)
	copy(out, j.tail[len(j.tail)-n:])
	return out
}

// Flush forces buffered events to the sink.
func (j *Journal) Flush() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.setErr(j.w.Flush())
	return j.err
}

// Close flushes and closes the underlying sink (when it is closable)
// and returns the journal's first error. Records after Close are
// dropped.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return j.err
	}
	j.closed = true
	j.setErr(j.w.Flush())
	if j.c != nil {
		j.setErr(j.c.Close())
	}
	return j.err
}

// CampaignStart records the campaign-identifying header event.
func (j *Journal) CampaignStart(listSize, days int, seed int64, workers int, shard string) {
	j.Record(Event{
		Type:     EventCampaignStart,
		Day:      -1,
		ListSize: listSize,
		Days:     days,
		Seed:     seed,
		Workers:  workers,
		Shard:    shard,
	})
}

// CampaignEnd records the terminal event carrying the hash of the
// dataset the campaign produced and its final telemetry snapshot (nil
// omits it).
func (j *Journal) CampaignEnd(datasetSHA256 string, snap *telemetry.Snapshot) {
	j.Record(Event{Type: EventCampaignEnd, Day: -1, DatasetSHA256: datasetSHA256, Telemetry: snap})
}

// Abort finalizes the journal on the campaign's fatal-exit path: it
// records campaign_aborted with the error and the telemetry snapshot of
// the failed campaign, and flushes, so the journal is complete and
// parseable exactly when it is most needed.
func (j *Journal) Abort(reason error, snap *telemetry.Snapshot) {
	msg := "unknown"
	if reason != nil {
		msg = reason.Error()
	}
	j.Record(Event{Type: EventCampaignAborted, Day: -1, Err: msg, Telemetry: snap})
}

// SetShard stamps subsequent phase events with the shard coordinate
// ("i/N"), so a mixed directory of shard journals self-identifies. Set
// once by the studyrun wiring before the campaign starts.
func (j *Journal) SetShard(shard string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.shard = shard
}

// OnPhase implements study.CampaignObserver: phase_start on entry,
// phase_end (span plus per-phase deltas) on completion. It always
// returns nil — flight recording must never abort the measurement; the
// abort direction flows the other way, via Abort.
func (j *Journal) OnPhase(ev telemetry.PhaseEvent) error {
	out := Event{
		Phase:       ev.Span.Phase,
		Day:         ev.Span.Day,
		Days:        ev.Span.Days,
		VirtualDate: ev.Span.VirtualDate,
		Domains:     ev.Span.Domains,
		Workers:     ev.Span.Workers,
	}
	j.mu.Lock()
	out.Shard = j.shard
	j.mu.Unlock()
	if ev.Start {
		out.Type = EventPhaseStart
	} else {
		out.Type = EventPhaseEnd
		out.Failures = ev.Span.Failures
		out.PairFailures = ev.Span.PairFailures
		out.Handshakes = ev.Span.Handshakes
		out.Retries = ev.Span.Retries
		out.WallNanos = ev.Span.WallNanos
		out.Utilization = ev.Span.Utilization
		out.FailureClasses = ev.FailureClasses
		out.Faults = ev.Faults
		out.STEKRotations = ev.STEKRotations
	}
	j.Record(out)
	return nil
}

// DecodeEvents reads a JSONL journal back into memory, rejecting events
// written by a newer schema version.
func DecodeEvents(r io.Reader) ([]Event, error) {
	dec := json.NewDecoder(r)
	var out []Event
	for {
		var ev Event
		if err := dec.Decode(&ev); err == io.EOF {
			return out, nil
		} else if err != nil {
			return nil, fmt.Errorf("obsv: bad journal event %d: %w", len(out), err)
		}
		if ev.V > JournalVersion {
			return nil, fmt.Errorf("obsv: journal event %d has schema v%d, newer than supported v%d",
				len(out), ev.V, JournalVersion)
		}
		out = append(out, ev)
	}
}

// ReadJournal loads a journal file.
func ReadJournal(path string) ([]Event, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	evs, err := DecodeEvents(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return evs, nil
}

// ValidateJournal checks the structural invariants replay depends on:
// contiguous sequence numbers from zero, a campaign_start first, and at
// most one terminal event, last.
func ValidateJournal(events []Event) error {
	if len(events) == 0 {
		return fmt.Errorf("obsv: empty journal")
	}
	for i, ev := range events {
		if ev.Seq != uint64(i) {
			return fmt.Errorf("obsv: event %d has seq %d (journal truncated or reordered)", i, ev.Seq)
		}
		terminal := ev.Type == EventCampaignEnd || ev.Type == EventCampaignAborted
		if terminal && i != len(events)-1 {
			return fmt.Errorf("obsv: terminal %s at event %d of %d", ev.Type, i, len(events))
		}
	}
	if events[0].Type != EventCampaignStart {
		return fmt.Errorf("obsv: journal starts with %s, want %s", events[0].Type, EventCampaignStart)
	}
	return nil
}

// DeterministicView returns a copy of the journal with every wall- or
// scheduling-dependent field zeroed: Wall stamps, WallNanos,
// Utilization, Workers, and the terminal snapshot's wall/ metrics. What
// remains must be identical for any worker count — the journal-level
// analogue of telemetry.Snapshot.Deterministic.
func DeterministicView(events []Event) []Event {
	out := make([]Event, len(events))
	for i, ev := range events {
		ev.Wall = ""
		ev.WallNanos = 0
		ev.Utilization = 0
		ev.Workers = 0
		if ev.Telemetry != nil {
			ev.Telemetry = ev.Telemetry.Deterministic()
		}
		out[i] = ev
	}
	return out
}

// MergeJournalsDeterministic correlates N shard journals of the same
// campaign into the deterministic journal the monolithic run would have
// produced: events are aligned positionally (every shard emits the
// identical phase sequence), per-phase additive results (domains,
// failures, handshakes, retries, failure classes, faults) are summed,
// and shard-variant fields are normalized away — Shard coordinates,
// per-shard dataset hashes, STEKRotations (a per-operator manager
// rotates lazily in every shard that touches its domains, so rotation
// counts are per-process observations, not partitions of the monolithic
// count), and for the same reason the terminal telemetry snapshot.
// Passing a single monolithic journal applies the same normalization,
// so merged-shards and normalized-monolithic views are directly
// comparable.
func MergeJournalsDeterministic(journals ...[]Event) ([]Event, error) {
	if len(journals) == 0 {
		return nil, fmt.Errorf("obsv: no journals to merge")
	}
	views := make([][]Event, len(journals))
	for i, evs := range journals {
		if err := ValidateJournal(evs); err != nil {
			return nil, fmt.Errorf("journal %d: %w", i, err)
		}
		views[i] = DeterministicView(evs)
		if len(views[i]) != len(views[0]) {
			return nil, fmt.Errorf("obsv: journal %d has %d events, journal 0 has %d",
				i, len(views[i]), len(views[0]))
		}
	}
	out := make([]Event, len(views[0]))
	for i, base := range views[0] {
		merged := base
		merged.Shard = ""
		merged.DatasetSHA256 = ""
		merged.STEKRotations = 0
		merged.Telemetry = nil
		merged.FailureClasses = cloneCounts(base.FailureClasses)
		merged.Faults = cloneCounts(base.Faults)
		for vi, view := range views[1:] {
			ev := view[i]
			if ev.Type != base.Type || ev.Phase != base.Phase || ev.Day != base.Day {
				return nil, fmt.Errorf("obsv: journal %d event %d is %s/%s day %d, journal 0 has %s/%s day %d",
					vi+1, i, ev.Type, ev.Phase, ev.Day, base.Type, base.Phase, base.Day)
			}
			if ev.VirtualDate != base.VirtualDate {
				return nil, fmt.Errorf("obsv: journal %d event %d virtual date %q != %q (campaigns not in lockstep)",
					vi+1, i, ev.VirtualDate, base.VirtualDate)
			}
			if ev.ListSize != base.ListSize || ev.Days != base.Days || ev.Seed != base.Seed {
				return nil, fmt.Errorf("obsv: journal %d event %d is from a different campaign (%d domains x %d days seed %d vs %d x %d seed %d)",
					vi+1, i, ev.ListSize, ev.Days, ev.Seed, base.ListSize, base.Days, base.Seed)
			}
			merged.Domains += ev.Domains
			merged.Failures += ev.Failures
			merged.PairFailures += ev.PairFailures
			merged.Handshakes += ev.Handshakes
			merged.Retries += ev.Retries
			merged.FailureClasses = addCounts(merged.FailureClasses, ev.FailureClasses)
			merged.Faults = addCounts(merged.Faults, ev.Faults)
		}
		merged.Seq = uint64(i)
		out[i] = merged
	}
	return out, nil
}

func cloneCounts(m map[string]uint64) map[string]uint64 {
	if m == nil {
		return nil
	}
	out := make(map[string]uint64, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

func addCounts(dst, src map[string]uint64) map[string]uint64 {
	if len(src) == 0 {
		return dst
	}
	if dst == nil {
		dst = make(map[string]uint64, len(src))
	}
	for k, v := range src {
		dst[k] += v
	}
	return dst
}
