package obsv

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
	"time"

	"tlsshortcuts/internal/telemetry"
)

// TestProgressZeroWallDelta forces two progress samples at the SAME
// wall instant — the degenerate pair a clock step or coarse timer can
// produce — and checks every derived rate stays finite and the payload
// still marshals (a NaN/Inf would 500 /progress and silently drop SSE
// events).
func TestProgressZeroWallDelta(t *testing.T) {
	reg := telemetry.NewRegistry()
	reg.Counter(telemetry.CounterHandshakesStarted).Add(100)
	reg.Counter(telemetry.CounterBusyNanos).Add(5e9)
	reg.Counter(telemetry.CounterTrafficVisits).Add(40)

	s := NewServer(Config{Registry: reg, Workers: 8})
	frozen := time.Unix(1700000000, 0)
	s.now = func() time.Time { return frozen }

	_ = s.Progress() // establishes prev sample at the frozen instant
	reg.Counter(telemetry.CounterHandshakesStarted).Add(50)
	reg.Counter(telemetry.CounterTrafficVisits).Add(10)
	p := s.Progress() // zero wall delta against the first sample

	for name, v := range map[string]float64{
		"handshakes_per_sec": p.HandshakesPerSec,
		"sessions_per_sec":   p.SessionsPerSec,
		"utilization":        p.Utilization,
		"failure_rate":       p.FailureRate,
	} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("%s = %v on a zero wall-delta sample; must be finite", name, v)
		}
	}
	if p.HandshakesPerSec != 0 || p.SessionsPerSec != 0 || p.Utilization != 0 {
		t.Errorf("zero wall delta must yield zero rates, got hs=%v sess=%v util=%v",
			p.HandshakesPerSec, p.SessionsPerSec, p.Utilization)
	}
	if _, err := json.Marshal(p); err != nil {
		t.Fatalf("progress payload does not marshal: %v", err)
	}
}

// TestProgressCounterRollback swaps in lower counter values between
// samples (a registry swap mid-campaign) and checks the unsigned deltas
// clamp to zero instead of wrapping into astronomically large rates.
func TestProgressCounterRollback(t *testing.T) {
	reg := telemetry.NewRegistry()
	reg.Counter(telemetry.CounterHandshakesStarted).Add(1000)
	reg.Counter(telemetry.CounterTrafficVisits).Add(500)
	reg.Counter(telemetry.CounterBusyNanos).Add(9e9)

	s := NewServer(Config{Registry: reg, Workers: 4})
	base := time.Unix(1700000000, 0)
	calls := 0
	s.now = func() time.Time {
		calls++
		return base.Add(time.Duration(calls) * time.Second)
	}

	_ = s.Progress()
	// Fresh registry with smaller counts: every delta is negative.
	s.cfg.Registry = telemetry.NewRegistry()
	s.cfg.Registry.Counter(telemetry.CounterHandshakesStarted).Add(10)
	p := s.Progress()

	if p.HandshakesPerSec != 0 || p.SessionsPerSec != 0 || p.Utilization != 0 {
		t.Errorf("counter rollback must clamp rates to zero, got hs=%v sess=%v util=%v",
			p.HandshakesPerSec, p.SessionsPerSec, p.Utilization)
	}
}

// TestProgressTrafficFields checks the traffic counters surface in the
// payload and the session rate derives from the visit delta, measured
// over windows of at least half an Interval.
func TestProgressTrafficFields(t *testing.T) {
	reg := telemetry.NewRegistry()
	s := NewServer(Config{Registry: reg, Workers: 2})
	now := time.Unix(1700000000, 0)
	s.now = func() time.Time { return now }

	_ = s.Progress()
	reg.Counter(telemetry.CounterTrafficVisits).Add(30)
	reg.Counter(telemetry.CounterTrafficResumed).Add(12)
	now = now.Add(time.Second)
	p := s.Progress()

	if p.TrafficVisits != 30 || p.TrafficResumed != 12 {
		t.Errorf("traffic counters = %d/%d, want 30/12", p.TrafficVisits, p.TrafficResumed)
	}
	if p.SessionsPerSec != 30 {
		t.Errorf("sessions_per_sec = %v, want 30 (30 visits over 1s)", p.SessionsPerSec)
	}
	b, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"traffic_visits":30`, `"traffic_resumed":12`, `"sessions_per_sec":30`} {
		if !strings.Contains(string(b), want) {
			t.Errorf("progress JSON missing %s: %s", want, b)
		}
	}

	// Another caller 1 ms later sees fresh counters but repeats the last
	// rate; the next window still runs from the last full sample.
	reg.Counter(telemetry.CounterTrafficVisits).Add(10)
	now = now.Add(time.Millisecond)
	if p := s.Progress(); p.TrafficVisits != 40 || p.SessionsPerSec != 30 {
		t.Errorf("1 ms later: visits=%d sessions_per_sec=%v, want 40 and the repeated 30", p.TrafficVisits, p.SessionsPerSec)
	}
	now = now.Add(time.Second - time.Millisecond)
	if p := s.Progress(); p.SessionsPerSec != 10 {
		t.Errorf("sessions_per_sec = %v, want 10 (10 visits over the 1 s since the last full sample)", p.SessionsPerSec)
	}
}
