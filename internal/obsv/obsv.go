// Package obsv is the campaign observability plane: the one HTTP server
// a campaign (monolithic or one shard of many) attaches, and a
// flight-recorder journal that records what the campaign did as a
// replayable JSONL event log, with the post-run journal merge the
// tlsobserve CLI builds on to correlate shards.
//
// Endpoints:
//
//	/metrics    Prometheus text exposition of the telemetry registry
//	            (?format=json returns the raw telemetry.Snapshot)
//	/progress   JSON progress snapshot: day N/M, virtual date,
//	            handshakes/s, failure rate by error class, utilization
//	            (?stream=1 upgrades to an SSE stream of the same)
//	/journal    JSONL tail of the flight-recorder event log (?n=K)
//	/healthz    liveness: "ok"
//	/debug/pprof/     net/http/pprof profiles of the serving process
//	/debug/vars       expvar (cmdline, memstats)
//
// The plane inherits telemetry's contract: it observes, never perturbs.
// Serving, journaling, and streaming draw no entropy and read no clock
// the measurement depends on, and the obsv suite re-runs the golden
// campaign with the full plane attached (server + journal + SSE
// subscriber) and requires the committed dataset hash byte-for-byte.
package obsv

import (
	"encoding/json"
	"expvar"
	"fmt"
	"math"
	"net/http"
	"net/http/pprof"
	"strconv"
	"sync"
	"time"

	"tlsshortcuts/internal/telemetry"
)

// Config wires a Server to one campaign's signal sources.
type Config struct {
	// Registry is the campaign's telemetry registry (nil serves empty
	// metrics).
	Registry *telemetry.Registry
	// Days is the campaign length, for "day N/M" progress.
	Days int
	// ListSize is the campaign's domain-list size (progress metadata).
	ListSize int
	// Shard is the campaign's "i/N" shard coordinate, "" if monolithic.
	Shard string
	// Workers is the scan pool size, the utilization denominator.
	Workers int
	// Journal, when non-nil, backs /journal and the virtual-date field
	// of /progress.
	Journal *Journal
	// Interval is the progress sampling/broadcast period for the SSE
	// stream (default 1s).
	Interval time.Duration
	// Logf, when non-nil, receives server lifecycle messages.
	Logf func(format string, args ...interface{})
}

// Progress is one point-in-time view of campaign health — the payload
// of /progress and of every SSE event.
type Progress struct {
	Day         uint64 `json:"day"`
	Days        int    `json:"days,omitempty"`
	ListSize    int    `json:"list_size,omitempty"`
	Shard       string `json:"shard,omitempty"`
	Workers     int    `json:"workers,omitempty"`
	VirtualDate string `json:"virtual_date,omitempty"`

	Probes           uint64  `json:"probes"`
	ProbeFailures    uint64  `json:"probe_failures"`
	FailureRate      float64 `json:"failure_rate"` // cumulative, fraction of probes
	Handshakes       uint64  `json:"handshakes"`
	HandshakesPerSec float64 `json:"handshakes_per_sec"` // instantaneous, since last sample
	Retries          uint64  `json:"retries"`
	STEKRotations    uint64  `json:"stek_rotations"`
	// Utilization is mean per-worker busy fraction since the last
	// sample, in [0,1].
	Utilization float64 `json:"utilization"`

	// Traffic-plane counters (zero and omitted unless the campaign runs
	// simulated user traffic): cumulative visits, resumed sessions, and
	// the instantaneous session rate since the last sample.
	TrafficVisits  uint64  `json:"traffic_visits,omitempty"`
	TrafficResumed uint64  `json:"traffic_resumed,omitempty"`
	SessionsPerSec float64 `json:"sessions_per_sec,omitempty"`
	// FailuresByClass maps faults.ErrClass -> cumulative failed probes.
	FailuresByClass map[string]uint64 `json:"failures_by_class,omitempty"`

	// SSE stream accounting: attached subscribers and lifetime events
	// dropped on slow ones.
	SSESubscribers int    `json:"sse_subscribers"`
	SSEDropped     uint64 `json:"sse_dropped"`
}

// Server is the observability plane's HTTP face. Create with
// NewServer, optionally Start the SSE sampler, and mount it anywhere
// (it implements http.Handler); Close stops the sampler and closes
// every stream.
type Server struct {
	cfg Config
	mux *http.ServeMux
	bc  *broadcaster

	// now is the sampling clock, injectable so tests can force
	// degenerate (zero wall-delta) sample pairs.
	now func() time.Time

	mu         sync.Mutex
	prevTime   time.Time
	prevHS     uint64
	prevBusy   uint64
	prevVisits uint64
	hsRate     float64 // rates measured at prevTime
	visitRate  float64
	util       float64
	started    bool
	done       chan struct{}
	samplerEnd sync.WaitGroup
}

// NewServer builds the plane over cfg.
func NewServer(cfg Config) *Server {
	if cfg.Interval <= 0 {
		cfg.Interval = time.Second
	}
	s := &Server{cfg: cfg, bc: newBroadcaster(), done: make(chan struct{}), now: time.Now}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/progress", s.handleProgress)
	mux.HandleFunc("/journal", s.handleJournal)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/debug/vars", expvar.Handler())
	s.mux = mux
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// Start launches the progress sampler that feeds SSE subscribers. Safe
// to skip for handler-only uses (/metrics, /healthz on a simweb).
func (s *Server) Start() {
	s.mu.Lock()
	if s.started {
		s.mu.Unlock()
		return
	}
	s.started = true
	s.mu.Unlock()
	s.samplerEnd.Add(1)
	go func() {
		defer s.samplerEnd.Done()
		tick := time.NewTicker(s.cfg.Interval)
		defer tick.Stop()
		for {
			select {
			case <-s.done:
				return
			case <-tick.C:
				p := s.Progress()
				if b, err := json.Marshal(p); err == nil {
					s.bc.publish(b)
				}
			}
		}
	}()
}

// Close stops the sampler. Attached SSE handlers return on their
// request contexts; in-flight requests are unaffected.
func (s *Server) Close() {
	s.mu.Lock()
	select {
	case <-s.done:
	default:
		close(s.done)
	}
	s.mu.Unlock()
	s.samplerEnd.Wait()
}

// Progress computes the current Progress, deriving instantaneous rates
// from the previous sample, whichever caller took it (/progress, the SSE
// sampler, studyrun's -progress ticker); the first call reports them
// as 0.
func (s *Server) Progress() Progress {
	snap := s.cfg.Registry.Snapshot()
	now := s.now()
	p := Progress{
		Day:             snap.Counters[telemetry.CounterDaysCompleted],
		Days:            s.cfg.Days,
		ListSize:        s.cfg.ListSize,
		Shard:           s.cfg.Shard,
		Workers:         s.cfg.Workers,
		Probes:          snap.Counters[telemetry.CounterProbes],
		ProbeFailures:   snap.Counters[telemetry.CounterProbeFailures],
		Handshakes:      snap.Counters[telemetry.CounterHandshakesStarted],
		Retries:         snap.Counters[telemetry.CounterRetries],
		STEKRotations:   snap.Counters[telemetry.CounterSTEKRotations],
		TrafficVisits:   snap.Counters[telemetry.CounterTrafficVisits],
		TrafficResumed:  snap.Counters[telemetry.CounterTrafficResumed],
		FailuresByClass: snap.PrefixCounters(telemetry.CounterErrorPrefix),
	}
	if p.Probes > 0 {
		p.FailureRate = float64(p.ProbeFailures) / float64(p.Probes)
	}
	if j := s.cfg.Journal; j != nil {
		tail := j.Tail(tailSize)
		for i := len(tail) - 1; i >= 0; i-- {
			if tail[i].VirtualDate != "" {
				p.VirtualDate = tail[i].VirtualDate
				break
			}
		}
	}
	busy := snap.Counters[telemetry.CounterBusyNanos]
	s.mu.Lock()
	// All callers share one rate baseline, so a call less than half an
	// Interval after the last one repeats its rates: two 1 s tickers
	// started together (the SSE sampler and studyrun's ticker) would
	// otherwise measure microsecond windows. Zero wall delta (a clock
	// step, a coarse timer, a test's frozen clock) and counter rollback
	// (a registry swap) both occur in practice: rates are 0 rather than
	// dividing by zero or wrapping a uint64 subtraction.
	dt := now.Sub(s.prevTime)
	if s.prevTime.IsZero() || dt <= 0 || dt >= s.cfg.Interval/2 {
		s.hsRate, s.visitRate, s.util = 0, 0, 0
		if !s.prevTime.IsZero() && dt > 0 {
			sec := dt.Seconds()
			s.hsRate = float64(counterDelta(p.Handshakes, s.prevHS)) / sec
			s.visitRate = float64(counterDelta(p.TrafficVisits, s.prevVisits)) / sec
			if s.cfg.Workers > 0 {
				s.util = float64(counterDelta(busy, s.prevBusy)) / (sec * 1e9 * float64(s.cfg.Workers))
			}
		}
		s.prevTime, s.prevHS, s.prevBusy, s.prevVisits = now, p.Handshakes, busy, p.TrafficVisits
	}
	p.HandshakesPerSec, p.SessionsPerSec, p.Utilization = s.hsRate, s.visitRate, s.util
	s.mu.Unlock()
	_, dropped, subs := s.bc.counts()
	p.SSESubscribers = subs
	p.SSEDropped = dropped
	// A non-finite float is not JSON-encodable: it would 500 /progress
	// and silently drop SSE events. No rate may leave here NaN or Inf.
	p.FailureRate = finite(p.FailureRate)
	p.HandshakesPerSec = finite(p.HandshakesPerSec)
	p.SessionsPerSec = finite(p.SessionsPerSec)
	p.Utilization = finite(p.Utilization)
	return p
}

// counterDelta returns cur-prev, clamping rollbacks to zero instead of
// wrapping the unsigned subtraction into an enormous rate.
func counterDelta(cur, prev uint64) uint64 {
	if cur < prev {
		return 0
	}
	return cur - prev
}

// finite maps NaN and ±Inf to 0.
func finite(f float64) float64 {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return 0
	}
	return f
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	snap := s.cfg.Registry.Snapshot()
	if r.URL.Query().Get("format") == "json" {
		w.Header().Set("Content-Type", "application/json")
		if err := json.NewEncoder(w).Encode(snap); err != nil && s.cfg.Logf != nil {
			s.cfg.Logf("obsv: /metrics encode: %v", err)
		}
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	WriteProm(w, snap)
	published, dropped, subs := s.bc.counts()
	fmt.Fprintf(w, "# TYPE tls_obsv_sse_subscribers gauge\ntls_obsv_sse_subscribers %d\n", subs)
	fmt.Fprintf(w, "# TYPE tls_obsv_sse_published_total counter\ntls_obsv_sse_published_total %d\n", published)
	fmt.Fprintf(w, "# TYPE tls_obsv_sse_dropped_total counter\ntls_obsv_sse_dropped_total %d\n", dropped)
}

func (s *Server) handleProgress(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("stream") == "" {
		w.Header().Set("Content-Type", "application/json")
		if err := json.NewEncoder(w).Encode(s.Progress()); err != nil && s.cfg.Logf != nil {
			s.cfg.Logf("obsv: /progress encode: %v", err)
		}
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusNotImplemented)
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	sub := s.bc.subscribe(16)
	defer s.bc.unsubscribe(sub)
	// Immediate snapshot so a fresh subscriber sees state before the
	// next tick; then the broadcast feed until disconnect or shutdown.
	if b, err := json.Marshal(s.Progress()); err == nil {
		fmt.Fprintf(w, "data: %s\n\n", b)
		flusher.Flush()
	}
	for {
		select {
		case <-r.Context().Done():
			return
		case <-s.done:
			return
		case msg := <-sub.ch:
			if _, err := fmt.Fprintf(w, "data: %s\n\n", msg); err != nil {
				return
			}
			flusher.Flush()
		}
	}
}

func (s *Server) handleJournal(w http.ResponseWriter, r *http.Request) {
	if s.cfg.Journal == nil {
		http.Error(w, "no journal attached", http.StatusNotFound)
		return
	}
	n := 32
	if q := r.URL.Query().Get("n"); q != "" {
		if v, err := strconv.Atoi(q); err == nil && v > 0 {
			n = v
		}
	}
	w.Header().Set("Content-Type", "application/jsonl")
	enc := json.NewEncoder(w)
	for _, ev := range s.cfg.Journal.Tail(n) {
		if err := enc.Encode(ev); err != nil {
			return
		}
	}
}
