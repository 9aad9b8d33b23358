package obsv_test

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"tlsshortcuts/internal/faults"
	"tlsshortcuts/internal/obsv"
	"tlsshortcuts/internal/study"
	"tlsshortcuts/internal/telemetry"
)

// detOpts mirrors internal/study's determinism campaign; the golden
// hash below is the same file that suite pins.
var detOpts = study.Options{ListSize: 200, Days: 8, Seed: 7, Workers: 8}

const goldenPath = "../study/testdata/campaign_200x8_seed7.sha256"

func readGolden(t *testing.T) string {
	t.Helper()
	b, err := os.ReadFile(filepath.Join(goldenPath))
	if err != nil {
		t.Fatalf("reading golden hash: %v", err)
	}
	return strings.TrimSpace(string(b))
}

func hashDataset(t *testing.T, ds *study.Dataset) string {
	t.Helper()
	b, err := json.Marshal(ds)
	if err != nil {
		t.Fatalf("marshal dataset: %v", err)
	}
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// TestFullPlaneGoldenCampaign is the acceptance criterion: with the
// observability plane FULLY enabled — HTTP server attached to the live
// registry, churning SSE subscribers, flight-recorder journal, trace
// writer — the determinism campaign must still reproduce the committed
// golden dataset hash byte-for-byte. Observation must not perturb. It
// also pins that the journal alone carries what studyrun's retired
// sinks wrote: its phase_end events are the trace spans, its terminal
// event the final snapshot, and the server serves pprof and expvar.
func TestFullPlaneGoldenCampaign(t *testing.T) {
	if testing.Short() {
		t.Skip("full 200x8 campaign; run without -short")
	}
	reg := telemetry.NewRegistry()
	journalPath := filepath.Join(t.TempDir(), "flight.jsonl")
	journal, err := obsv.CreateJournal(journalPath)
	if err != nil {
		t.Fatal(err)
	}
	var trace bytes.Buffer

	server := obsv.NewServer(obsv.Config{
		Registry: reg,
		Days:     detOpts.Days,
		ListSize: detOpts.ListSize,
		Workers:  detOpts.Workers,
		Journal:  journal,
		Interval: 5 * time.Millisecond, // aggressive sampling: maximize interleaving
	})
	server.Start()
	defer server.Close()
	hts := httptest.NewServer(server)
	defer hts.Close()

	// SSE churn: subscribers connect, read a little, and drop, the whole
	// campaign long.
	churnCtx, stopChurn := context.WithCancel(context.Background())
	var churn sync.WaitGroup
	for i := 0; i < 3; i++ {
		churn.Add(1)
		go func() {
			defer churn.Done()
			for churnCtx.Err() == nil {
				req, _ := http.NewRequestWithContext(churnCtx, http.MethodGet, hts.URL+"/progress?stream=1", nil)
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					return
				}
				sc := bufio.NewScanner(resp.Body)
				for j := 0; j < 4 && sc.Scan(); j++ {
				}
				resp.Body.Close()
			}
		}()
	}

	opts := detOpts
	opts.Telemetry = reg
	opts.Trace = &trace
	opts.Observer = journal
	journal.CampaignStart(opts.ListSize, opts.Days, opts.Seed, opts.Workers, "")
	ds, err := study.Run(opts)
	stopChurn()
	churn.Wait()
	if err != nil {
		t.Fatalf("Run with full plane: %v", err)
	}
	hash := hashDataset(t, ds)
	journal.CampaignEnd(hash, reg.Snapshot())

	if golden := readGolden(t); hash != golden {
		t.Fatalf("full observability plane perturbed the campaign:\n  got  %s\n  want %s", hash, golden)
	}

	// The plane's endpoints reflect the finished campaign.
	client := obsv.NewClient(hts.URL)
	ctx := context.Background()
	if err := client.Healthz(ctx); err != nil {
		t.Errorf("healthz: %v", err)
	}
	prog, err := client.Progress(ctx)
	if err != nil {
		t.Fatalf("progress: %v", err)
	}
	if prog.Day != uint64(detOpts.Days) || prog.Handshakes == 0 || prog.Probes == 0 {
		t.Errorf("progress does not reflect the campaign: %+v", prog)
	}
	resp, err := http.Get(hts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var promText bytes.Buffer
	promText.ReadFrom(resp.Body)
	resp.Body.Close()
	if !strings.Contains(promText.String(), "tls_scanner_probes_total") {
		t.Error("/metrics missing the probe counter")
	}
	events, err := client.Journal(ctx, 10)
	if err != nil {
		t.Fatalf("journal tail: %v", err)
	}
	if len(events) == 0 || events[len(events)-1].Type != obsv.EventCampaignEnd {
		t.Errorf("journal tail does not end with campaign_end: %d events", len(events))
	}
	for _, path := range []string{"/debug/pprof/cmdline", "/debug/vars"} {
		resp, err := http.Get(hts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		var body bytes.Buffer
		body.ReadFrom(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || body.Len() == 0 {
			t.Errorf("GET %s: status %d, %d-byte body", path, resp.StatusCode, body.Len())
		}
	}

	// The on-disk journal validates and records the golden hash and the
	// final snapshot.
	if err := journal.Close(); err != nil {
		t.Fatalf("journal close: %v", err)
	}
	full, err := obsv.ReadJournal(journalPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := obsv.ValidateJournal(full); err != nil {
		t.Fatalf("journal invalid: %v", err)
	}
	last := full[len(full)-1]
	if last.DatasetSHA256 != hash {
		t.Errorf("journal records hash %s, dataset hashed %s", last.DatasetSHA256, hash)
	}
	if last.Telemetry == nil || last.Telemetry.Counters[telemetry.CounterProbes] != prog.Probes {
		t.Errorf("campaign_end snapshot does not match the finished registry (%d probes)", prog.Probes)
	}

	// Every phase_end line, decoded as a span, is the trace's span for
	// that phase, wall fields included.
	spans := decodeSpans(t, bytes.NewReader(trace.Bytes()), "")
	jf, err := os.Open(journalPath)
	if err != nil {
		t.Fatal(err)
	}
	defer jf.Close()
	ends := decodeSpans(t, jf, obsv.EventPhaseEnd)
	if len(spans) < detOpts.Days {
		t.Errorf("trace has %d spans, want at least one per day", len(spans))
	}
	if !reflect.DeepEqual(ends, spans) {
		t.Errorf("journal phase_end events differ from the trace:\n journal %+v\n trace   %+v", ends, spans)
	}
}

// decodeSpans decodes a JSONL stream's lines as telemetry.Span, keeping
// only lines whose "type" is typ.
func decodeSpans(t *testing.T, r io.Reader, typ string) []telemetry.Span {
	t.Helper()
	var out []telemetry.Span
	dec := json.NewDecoder(r)
	for {
		var line json.RawMessage
		if err := dec.Decode(&line); err == io.EOF {
			return out
		} else if err != nil {
			t.Fatalf("line %d unparseable: %v", len(out), err)
		}
		var head struct{ Type string }
		var span telemetry.Span
		if err := json.Unmarshal(line, &head); err != nil {
			t.Fatal(err)
		}
		if head.Type != typ {
			continue
		}
		if err := json.Unmarshal(line, &span); err != nil {
			t.Fatal(err)
		}
		out = append(out, span)
	}
}

// journalOpts is the worker-invariance and shard-merge campaign:
// smaller than detOpts but with the full fault stack so failure-class
// deltas are exercised.
func journalOpts() study.Options {
	return study.Options{
		ListSize:     120,
		Days:         5,
		Seed:         7,
		ProbeTimeout: 120 * time.Millisecond,
		Faults: &faults.Options{
			Seed: 11, Refuse: 0.06, Reset: 0.03, Stall: 0.01,
			Flap: 0.05, Churn: 0.08, ChurnMaxDays: 3,
		},
	}
}

// runJournal executes one campaign with a journal observer attached and
// returns the decoded journal, ending in the final telemetry snapshot.
func runJournal(t *testing.T, opts study.Options, shard string) []obsv.Event {
	t.Helper()
	opts.Telemetry = telemetry.NewRegistry()
	var buf bytes.Buffer
	j := obsv.NewJournal(&buf)
	j.SetShard(shard)
	if shard != "" {
		spec, err := parseShard(shard)
		if err != nil {
			t.Fatal(err)
		}
		opts.Shard = spec
	}
	j.CampaignStart(opts.ListSize, opts.Days, opts.Seed, opts.Workers, shard)
	opts.Observer = j
	ds, err := study.Run(opts)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	j.CampaignEnd(hashDataset(t, ds), opts.Telemetry.Snapshot())
	if err := j.Close(); err != nil {
		t.Fatalf("journal: %v", err)
	}
	events, err := obsv.DecodeEvents(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if err := obsv.ValidateJournal(events); err != nil {
		t.Fatal(err)
	}
	return events
}

func parseShard(s string) (*study.ShardSpec, error) {
	i := strings.IndexByte(s, '/')
	idx, err := strconv.Atoi(s[:i])
	if err != nil {
		return nil, err
	}
	count, err := strconv.Atoi(s[i+1:])
	if err != nil {
		return nil, err
	}
	spec := &study.ShardSpec{Index: idx, Count: count}
	return spec, spec.Validate()
}

func journalJSON(t *testing.T, events []obsv.Event) string {
	t.Helper()
	b, err := json.MarshalIndent(events, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestJournalWorkerInvariance: the deterministic view of the journal,
// terminal snapshot included, is byte-identical whether the campaign ran
// with 3 workers or 13.
func TestJournalWorkerInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("two faulted campaigns; run without -short")
	}
	a := journalOpts()
	a.Workers = 3
	b := journalOpts()
	b.Workers = 13
	ja := obsv.DeterministicView(runJournal(t, a, ""))
	jb := obsv.DeterministicView(runJournal(t, b, ""))
	sa, sb := journalJSON(t, ja), journalJSON(t, jb)
	if sa != sb {
		t.Fatalf("journal depends on worker count (3 vs 13):\n%s", diffHead(sa, sb))
	}
}

// TestJournalShardMergeMatchesMonolithic: merging the 2-shard journals
// deterministically equals the normalized monolithic journal. Every
// journal ends in its own telemetry snapshot, so the comparison also
// pins that the merge clears those (they are not shard-additive).
func TestJournalShardMergeMatchesMonolithic(t *testing.T) {
	if testing.Short() {
		t.Skip("three faulted campaigns; run without -short")
	}
	opts := journalOpts()
	opts.Workers = 4
	mono := runJournal(t, opts, "")
	s0 := runJournal(t, opts, "0/2")
	s1 := runJournal(t, opts, "1/2")

	merged, err := obsv.MergeJournalsDeterministic(s0, s1)
	if err != nil {
		t.Fatalf("merging shards: %v", err)
	}
	normMono, err := obsv.MergeJournalsDeterministic(mono)
	if err != nil {
		t.Fatalf("normalizing monolithic: %v", err)
	}
	sm, sn := journalJSON(t, merged), journalJSON(t, normMono)
	if sm != sn {
		t.Fatalf("sharded journal merge diverges from monolithic:\n%s", diffHead(sm, sn))
	}
}

// diffHead renders the first differing lines of two texts.
func diffHead(a, b string) string {
	la, lb := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(la) && i < len(lb); i++ {
		if la[i] != lb[i] {
			return fmt.Sprintf("line %d:\n  a: %s\n  b: %s", i, la[i], lb[i])
		}
	}
	return fmt.Sprintf("lengths differ: %d vs %d", len(la), len(lb))
}

// TestClusterView: a server with a peer merges both shards' metrics and
// progress; deterministic counters sum, wall/ metrics stay per shard.
func TestClusterView(t *testing.T) {
	regA := telemetry.NewRegistry()
	regA.Counter("scanner/probes").Add(10)
	regA.Counter("wall/scanner/busy_ns").Add(100)
	serverA := obsv.NewServer(obsv.Config{Registry: regA, Shard: "0/2"})
	htsA := httptest.NewServer(serverA)
	defer htsA.Close()

	regB := telemetry.NewRegistry()
	regB.Counter("scanner/probes").Add(32)
	regB.Counter("wall/scanner/busy_ns").Add(200)
	serverB := obsv.NewServer(obsv.Config{Registry: regB, Shard: "1/2", Peers: []string{htsA.URL}})
	htsB := httptest.NewServer(serverB)
	defer htsB.Close()

	view, err := obsv.NewClient(htsB.URL).Cluster(context.Background())
	if err != nil {
		t.Fatalf("cluster: %v", err)
	}
	if len(view.Shards) != 2 {
		t.Fatalf("cluster sees %d shards, want 2: %+v", len(view.Shards), view.Shards)
	}
	if got := view.Merged.Counters["scanner/probes"]; got != 42 {
		t.Errorf("merged probes = %d, want 42", got)
	}
	if got := view.Merged.Counters["wall/0/2/scanner/busy_ns"]; got != 100 {
		t.Errorf("shard 0/2 wall counter = %d, want 100 (keys: %v)", got, view.Merged.Counters)
	}
	if got := view.Merged.Counters["wall/1/2/scanner/busy_ns"]; got != 200 {
		t.Errorf("shard 1/2 wall counter = %d, want 200", got)
	}

	// /cluster/metrics renders the merged snapshot as prom text.
	resp, err := http.Get(htsB.URL + "/cluster/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var body bytes.Buffer
	body.ReadFrom(resp.Body)
	resp.Body.Close()
	if !strings.Contains(body.String(), "tls_scanner_probes_total 42") {
		t.Errorf("/cluster/metrics missing merged counter:\n%s", body.String())
	}

	// A dead peer is reported unreachable, not fatal.
	serverC := obsv.NewServer(obsv.Config{Registry: regB, Shard: "1/2", Peers: []string{"http://127.0.0.1:1"}})
	htsC := httptest.NewServer(serverC)
	defer htsC.Close()
	view, err = obsv.NewClient(htsC.URL).Cluster(context.Background())
	if err != nil {
		t.Fatalf("cluster with dead peer: %v", err)
	}
	if len(view.Unreachable) != 1 {
		t.Errorf("dead peer not reported: %+v", view.Unreachable)
	}
}
