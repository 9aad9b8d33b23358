package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"time"

	"tlsshortcuts/internal/study"
	"tlsshortcuts/internal/telemetry"
)

// tracer records the traced run of a sample: the campaign's telemetry
// registry and phase spans (through the existing study.Options hooks),
// the harness's own spans around the analysis steps, and a CPU profile.
// A nil *tracer is an untraced sample; its methods do nothing.
type tracer struct {
	reg      *telemetry.Registry
	spans    bytes.Buffer
	profile  *os.File
	steps    map[string]time.Duration
	last     time.Time
	gcCycles uint32
}

// traced is the traced run's raw record, sent from the sample process to
// the harness, which derives the per-layer metrics from it.
type traced struct {
	RunS        float64            `json:"run_s"`
	Phases      map[string]float64 `json:"phases"` // seconds, keyed by phase.<name>.s
	Utilization float64            `json:"utilization"`
	Counters    map[string]uint64  `json:"counters"`
	Families    map[string]uint64  `json:"families"` // scanner probes per probe family
	// LifetimeInits is how many domains each lifetime pass probed: the
	// first probe per domain is a full handshake, the rest resume.
	LifetimeInits map[string]uint64 `json:"lifetime_inits"`
	GCCycles      uint32            `json:"gc_cycles"`
	Profile       string            `json:"profile"`
}

// startTracer attaches a registry and a span trace to o (nil for the
// analysis workload, which is traced by the harness's own step spans).
func startTracer(o *study.Options, work string) (*tracer, error) {
	f, err := os.Create(filepath.Join(work, "cpu.pprof"))
	if err != nil {
		return nil, err
	}
	t := &tracer{profile: f}
	if o != nil {
		t.reg = telemetry.NewRegistry()
		o.Telemetry = t.reg
		o.Trace = &t.spans
	} else {
		t.steps = map[string]time.Duration{}
	}
	return t, nil
}

func (t *tracer) begin() error {
	if t == nil {
		return nil
	}
	return pprof.StartCPUProfile(t.profile)
}

func (t *tracer) end() error {
	if t == nil {
		return nil
	}
	pprof.StopCPUProfile()
	return t.profile.Close()
}

// step closes the analysis step that began at the previous call; the
// empty name starts a cycle.
func (t *tracer) step(name string) {
	now := time.Now()
	if name != "" {
		t.steps[name] += now.Sub(t.last)
	}
	t.last = now
}

// phaseNames maps study.Run's span phases onto the metric vocabulary.
var phaseNames = map[string]string{
	"lifetime-id":     "lifetime",
	"lifetime-ticket": "lifetime",
	"day":             "day",
	"traffic-day":     "traffic_day",
	"cross-domain":    "cross_domain",
	"cryptanalysis":   "cryptanalysis",
}

// tracedCounters are the registry counters the per-layer counts and
// ratios are built from.
var tracedCounters = []string{
	"simnet/dials", telemetry.CounterRetries,
	"keyex/fresh_keys", "keyex/reuse_lookups", "wall/keyex/cache_hit",
	"session/cache_put", "session/cache_hit", "session/cache_stale",
	"ticket/open_ok", "ticket/open_miss",
	telemetry.CounterTrafficVisits, telemetry.CounterTrafficResumed,
}

const latencyPrefix = "wall/scanner/latency/"

func (t *tracer) campaign(runS float64) *traced {
	out := &traced{
		RunS:          runS,
		Phases:        map[string]float64{},
		Counters:      map[string]uint64{},
		Families:      map[string]uint64{},
		LifetimeInits: map[string]uint64{},
		GCCycles:      t.gcCycles,
		Profile:       t.profile.Name(),
	}
	for _, p := range phaseNames {
		out.Phases["phase."+p+".s"] = 0
	}
	spans, err := telemetry.DecodeSpans(&t.spans)
	if err != nil {
		// The spans were written by this process into memory; a decode
		// failure is a bug, and the phases would silently read zero.
		panic(fmt.Sprintf("bench: decoding in-memory spans: %v", err))
	}
	var wall, busy, attributed float64
	for _, sp := range spans {
		sec := float64(sp.WallNanos) / 1e9
		out.Phases["phase."+phaseNames[sp.Phase]+".s"] += sec
		attributed += sec
		wall += sec
		busy += sp.Utilization * sec
		if strings.HasPrefix(sp.Phase, "lifetime-") {
			out.LifetimeInits["lt|"+strings.TrimPrefix(sp.Phase, "lifetime-")] = uint64(sp.Domains)
		}
	}
	out.Phases["phase.unattributed.s"] = runS - attributed
	if wall > 0 {
		out.Utilization = busy / wall
	}
	snap := t.reg.Snapshot()
	for _, name := range tracedCounters {
		out.Counters[name] = snap.Counters[name]
	}
	for name, h := range snap.Histograms {
		if strings.HasPrefix(name, latencyPrefix) {
			out.Families[strings.TrimPrefix(name, latencyPrefix)] = h.Count
		}
	}
	return out
}

func (t *tracer) analysis(runS float64) *traced {
	out := &traced{RunS: runS, Phases: map[string]float64{}, GCCycles: t.gcCycles, Profile: t.profile.Name()}
	var attributed float64
	for name, d := range t.steps {
		out.Phases["phase."+name+".s"] = d.Seconds()
		attributed += d.Seconds()
	}
	out.Phases["phase.unattributed.s"] = runS - attributed
	return out
}

// familyCost maps a scanner probe family to the handshake microbenchmark
// that prices one of its probes. Lifetime families are split: their first
// probe per domain is a full handshake, the rest are resumptions.
// Cross-domain probes offer a foreign session ID that most servers
// reject, so they are priced as full handshakes.
func familyCost(family string) (full, resume string) {
	switch {
	case family == "daily|ticket", family == "xd|init", family == "xd|probe":
		return "handshake.full_ecdhe", ""
	case strings.HasPrefix(family, "daily|kex"):
		return "handshake.kex_only", ""
	case family == "lt|id":
		return "handshake.full_ecdhe", "handshake.resume_id"
	case family == "lt|ticket":
		return "handshake.full_ecdhe", "handshake.resume_ticket"
	}
	return "", ""
}

// tracedMetrics derives the per-layer metrics of a traced run: phase
// times, operation counts, cache ratios, the handshake attribution, the
// tracing overhead, and the CPU seconds the profile attributes to each
// bucket.
func tracedMetrics(t *traced, overhead float64, micro map[string]microResult, cpu map[string]float64) []metric {
	var out []metric
	add := func(name, unit string, v float64) { out = append(out, single(name, unit, v)) }
	for _, name := range sortedKeys(t.Phases) {
		add(name, "s", t.Phases[name])
	}
	add("trace_overhead", "ratio", overhead)
	add("gc.cycles", "count", float64(t.GCCycles))
	var total float64
	for _, b := range cpuBuckets {
		add("cpu."+b+".s", "s", cpu[b])
		total += cpu[b]
	}
	add("cpu.total.s", "s", total)
	if t.Counters == nil {
		return out // analysis: no TLS layers below the study package
	}
	c := t.Counters
	add("phase.utilization", "ratio", t.Utilization)
	add("count.conns", "count", float64(c["simnet/dials"]))
	add("count.retries", "count", float64(c[telemetry.CounterRetries]))
	add("count.keyex_fresh", "count", float64(c["keyex/fresh_keys"]))
	add("count.session_put", "count", float64(c["session/cache_put"]))
	add("count.ticket_open", "count", float64(c["ticket/open_ok"]+c["ticket/open_miss"]))
	add("count.traffic_visits", "count", float64(c[telemetry.CounterTrafficVisits]))
	add("ratio.keyex_cache_hit", "ratio", ratio(c["wall/keyex/cache_hit"], c["keyex/reuse_lookups"]))
	add("ratio.session_cache_hit", "ratio", ratio(c["session/cache_hit"], c["session/cache_hit"]+c["session/cache_stale"]))
	add("ratio.ticket_open_ok", "ratio", ratio(c["ticket/open_ok"], c["ticket/open_ok"]+c["ticket/open_miss"]))
	add("ratio.traffic_resumed", "ratio", ratio(c[telemetry.CounterTrafficResumed], c[telemetry.CounterTrafficVisits]))

	// attrib.handshake.s prices every probe and traffic visit at its
	// handshake microbenchmark, spread over the worker pool; the residual
	// is what the handshake model leaves unexplained in those phases.
	ns := func(name string) float64 { return micro[name].NsPerOp }
	var hsNs float64
	for fam, n := range t.Families {
		full, resume := familyCost(fam)
		if full == "" {
			continue
		}
		inits := n
		if resume != "" {
			inits = min(n, t.LifetimeInits[fam])
			hsNs += float64(n-inits) * ns(resume)
		}
		hsNs += float64(inits) * ns(full)
	}
	visits, resumed := c[telemetry.CounterTrafficVisits], c[telemetry.CounterTrafficResumed]
	hsNs += float64(visits-resumed)*ns("handshake.full_ecdhe") + float64(resumed)*ns("handshake.resume_ticket")
	hs := hsNs / 1e9 / workers
	handshakePhases := t.Phases["phase.lifetime.s"] + t.Phases["phase.day.s"] +
		t.Phases["phase.traffic_day.s"] + t.Phases["phase.cross_domain.s"]
	add("attrib.handshake.s", "s", hs)
	add("attrib.residual.s", "s", handshakePhases-hs)
	return out
}

func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// cpuBuckets groups the traced run's CPU time by the source file it was
// spent in: this repository's packages, the standard library's crypto
// and big-number code, the Go runtime (allocation, GC, scheduling), and
// the rest of the standard library.
var cpuBuckets = []string{"repo", "crypto", "runtime", "other"}

func cpuBucket(file, goroot string) string {
	std, ok := strings.CutPrefix(file, goroot+"/src/")
	if !ok {
		return "repo"
	}
	for _, p := range []string{"crypto/", "math/big/", "vendor/golang.org/x/crypto/"} {
		if strings.HasPrefix(std, p) {
			return "crypto"
		}
	}
	for _, p := range []string{"runtime/", "internal/runtime/", "internal/bytealg/"} {
		if strings.HasPrefix(std, p) {
			return "runtime"
		}
	}
	return "other"
}

// pprofTop saves `go tool pprof -top -cum` of the traced run's profile to
// dst and returns the CPU seconds of each bucket, from the flat column of
// the per-file listing (assembly routines carry no package name, but
// their file does).
func pprofTop(binary, profile, dst string) (map[string]float64, error) {
	pprof := func(args ...string) ([]byte, error) {
		cmd := exec.Command("go", append(append([]string{"tool", "pprof"}, args...), binary, profile)...)
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		out, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("go tool pprof: %v: %s", err, stderr.Bytes())
		}
		return out, nil
	}
	listing, err := pprof("-top", "-cum")
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(dst, listing, 0o644); err != nil {
		return nil, err
	}
	goroot, err := exec.Command("go", "env", "GOROOT").Output()
	if err != nil {
		return nil, fmt.Errorf("go env GOROOT: %v", err)
	}
	files, err := pprof("-top", "-files", "-nodefraction=0")
	if err != nil {
		return nil, err
	}
	seconds := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(files))
	for sc.Scan() {
		// Rows read: flat flat% sum% cum cum% file [(inline)].
		f := strings.Fields(sc.Text())
		if len(f) < 6 || !strings.HasSuffix(f[1], "%") {
			continue
		}
		flat, err := pprofDuration(f[0])
		if err != nil {
			continue // the column header
		}
		seconds[cpuBucket(f[5], strings.TrimSpace(string(goroot)))] += flat.Seconds()
	}
	return seconds, sc.Err()
}

// pprofDuration parses pprof's rendering of a sample time ("0", "10ms",
// "1.25s", "1.5mins").
func pprofDuration(s string) (time.Duration, error) {
	if s == "0" {
		return 0, nil
	}
	s = strings.NewReplacer("mins", "m", "hrs", "h").Replace(s)
	return time.ParseDuration(s)
}
