// Command bench is the repository's benchmark. It measures the paper's
// measurement campaign end to end on four workloads and attributes the
// cost to the layers the campaign runs through.
//
// Build and run it from the repository root with
//
//	bash bench/run.sh [--workload W] [--seed N] [--seconds S] [--trace 0|1]
//
// With --trace 0 a run repeats fresh-process samples of the workload for
// --seconds and reports the end-to-end metrics as medians over them. With
// --trace 1 it runs the layer microbenchmarks, one traced sample (span
// trace, telemetry registry and CPU profile) and untraced samples for
// the rest of the time, and reports the per-layer metrics. Without
// --workload it runs every workload in both modes. Every sample's output
// is checked (see check); the last line of standard output is a JSON
// object with the fields correct, attempted, failed and metrics. The exit
// status is nonzero when a check fails.
package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strconv"
	"syscall"
	"time"
)

// childReq asks a fresh process for one sample of a workload, or for the
// microbenchmarks.
type childReq struct {
	Kind      string        `json:"kind"` // kindTimed, kindHeap, kindTraced or kindMicro
	Workload  string        `json:"workload,omitempty"`
	Seed      int64         `json:"seed,omitempty"`
	Scale     scale         `json:"scale"`
	Work      string        `json:"work"`
	Benchtime time.Duration `json:"benchtime,omitempty"` // kindMicro: per microbenchmark
	// Reuse makes an analysis sample load the shards an earlier sample of
	// the run saved in Work instead of producing them again.
	Reuse bool `json:"reuse,omitempty"`
}

// childEnv carries a childReq to a sample process: the harness re-executes
// its own binary with the request in the environment.
const childEnv = "BENCH_CHILD"

//go:embed expected.json
var expectedJSON []byte

func main() {
	if req := os.Getenv(childEnv); req != "" {
		os.Exit(childMain(req, os.Stdout))
	}
	os.Exit(benchMain(os.Args[1:], os.Stdout))
}

// childMain runs one request and prints its result as one JSON line.
func childMain(raw string, stdout io.Writer) int {
	var req childReq
	err := json.Unmarshal([]byte(raw), &req)
	var v any
	if err == nil && req.Kind == kindMicro {
		v, err = runMicros(req.Scale, req.Benchtime, req.Work)
	} else if err == nil {
		w, ok := lookupWorkload(req.Workload)
		if !ok {
			err = fmt.Errorf("unknown workload %q", req.Workload)
		} else {
			v, err = runSample(w, req)
		}
	}
	if err == nil {
		err = json.NewEncoder(stdout).Encode(v)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: sample process: %v\n", err)
		return 1
	}
	return 0
}

func benchMain(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "", "campaign, campaign-traffic, campaign-hostile or analysis (default: all, in both modes)")
	seed := fs.Int64("seed", 3, "workload seed")
	seconds := fs.Int("seconds", 25, "seconds one run measures")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from the microbenchmarks and a traced run")
	out := fs.String("out", ".bench_build/results", "directory for result documents and CPU profiles")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "bench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	h, err := newHarness(fullScale, *out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	budget := time.Duration(*seconds) * time.Second
	// An interrupted run kills its sample process before exiting.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	type job struct {
		w      workload
		traced bool
	}
	var jobs []job
	if *name == "" {
		for _, w := range workloads {
			jobs = append(jobs, job{w, false}, job{w, true})
		}
	} else {
		w, ok := lookupWorkload(*name)
		if !ok {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
			return 2
		}
		jobs = append(jobs, job{w, *trace == 1})
	}
	var runs []*result
	for _, j := range jobs {
		r, err := h.run(ctx, j.w, *seed, budget, j.traced)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", j.w.name, err)
			return 1
		}
		printTable(stdout, r)
		runs = append(runs, r)
	}
	line, err := summaryLine(runs)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	for _, r := range runs {
		if len(r.Problems) > 0 {
			return 1
		}
	}
	return 0
}

// harness runs samples as fresh processes, one at a time.
type harness struct {
	scale scale
	out   string
	host  host
	// expected maps workload -> seed -> dataset sha256 at fullScale.
	expected map[string]map[string]string
}

func newHarness(sc scale, out string) (*harness, error) {
	h := &harness{scale: sc, out: out, host: fingerprint()}
	if err := json.Unmarshal(expectedJSON, &h.expected); err != nil {
		return nil, fmt.Errorf("expected.json: %v", err)
	}
	if sc != fullScale {
		h.expected = nil // the recorded hashes hold only at fullScale
	}
	return h, os.MkdirAll(out, 0o755)
}

// result is one run: the document written next to the profile, and the
// source of the printed table and the summary line.
type result struct {
	Workload  string                 `json:"workload"`
	Seed      int64                  `json:"seed"`
	Trace     bool                   `json:"trace"`
	Scale     scale                  `json:"scale"`
	Host      host                   `json:"host"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Problems  []string               `json:"problems,omitempty"`
	Hash      string                 `json:"dataset_sha256"`
	Metrics   []metric               `json:"metrics"`
	Samples   []*sample              `json:"samples"`
	Micro     map[string]microResult `json:"micro,omitempty"`
}

// run measures workload w for about budget. Timed samples repeat until
// the budget is spent (at least one runs). Before them, within the
// budget, an untraced run takes one heap sample; a traced run takes the
// microbenchmarks and one traced sample.
func (h *harness) run(ctx context.Context, w workload, seed int64, budget time.Duration, trace bool) (*result, error) {
	r := &result{Workload: w.name, Seed: seed, Trace: trace, Scale: h.scale, Host: h.host}
	tag := fmt.Sprintf("%s-seed%d-trace%d", w.name, seed, btoi(trace))
	work := filepath.Join(h.out, "work-"+tag)
	if err := os.MkdirAll(work, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)

	want, wantScan, err := h.references(ctx, w, seed, work)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	first := kindHeap
	if trace {
		first = kindTraced
		// Microbenchmarks get about half the budget: 32 of them, each
		// taking roughly three times its benchtime.
		req := childReq{Kind: kindMicro, Scale: h.scale, Work: work, Benchtime: max(budget/200, time.Millisecond)}
		if err := h.child(ctx, req, &r.Micro); err != nil {
			return nil, err
		}
	}
	special, err := h.sample(ctx, w, seed, work, first, false)
	if err != nil {
		return nil, err
	}
	var samples []*sample
	for len(samples) == 0 || time.Since(start) < budget {
		// Analysis set-up costs about as much as a campaign: the first
		// three samples of a run time it, the rest reuse their shards.
		s, err := h.sample(ctx, w, seed, work, kindTimed, w.analysis && len(samples) >= 2)
		if err != nil {
			return nil, err
		}
		samples = append(samples, s)
	}
	all := append([]*sample{special}, samples...)
	r.Samples = all
	r.Attempted = len(all)
	r.Problems, r.Failed = check(w, all, want, wantScan)
	r.Hash = all[0].Hash

	if trace {
		err = h.layerMetrics(r, tag, special, samples)
	} else {
		r.Metrics = endToEndMetrics(w, all)
	}
	if err != nil {
		return nil, err
	}
	return r, h.writeDoc(r, tag)
}

// layerMetrics derives the per-layer metrics from the microbenchmarks and
// the traced sample, and saves the profile's pprof listing.
func (h *harness) layerMetrics(r *result, tag string, tracedSample *sample, samples []*sample) error {
	profile := filepath.Join(h.out, tag+".cpu.pprof")
	if err := os.Rename(tracedSample.Trace.Profile, profile); err != nil {
		return err
	}
	tracedSample.Trace.Profile = profile
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	cpu, err := pprofTop(exe, profile, filepath.Join(h.out, tag+".pprof-top-cum.txt"))
	if err != nil {
		return err
	}
	for _, mb := range micros {
		m := r.Micro[mb.name]
		r.Metrics = append(r.Metrics, single("micro."+mb.name+".ns", "ns", m.NsPerOp))
		if !allocFree[mb.name] {
			r.Metrics = append(r.Metrics, single("micro."+mb.name+".allocs", "count", m.AllocsPerOp))
		}
	}
	// The overhead compares rescaled times, like the end-to-end metrics,
	// so a change of host speed between the samples does not show as one.
	untraced := make([]float64, len(samples))
	for i, s := range samples {
		untraced[i] = s.RunS / s.RefS
	}
	overhead := tracedSample.RunS / tracedSample.RefS / median(untraced)
	r.Metrics = append(r.Metrics, tracedMetrics(tracedSample.Trace, overhead, r.Micro, cpu)...)
	return nil
}

// references returns the dataset hashes a workload's samples must
// reproduce: the recorded hash for this seed when expected.json has one,
// otherwise the campaign workload's hash from a fresh reference process
// (analysis must merge back to it; campaign-traffic's scanner half must
// equal it). Empty means only agreement across samples is checked.
func (h *harness) references(ctx context.Context, w workload, seed int64, work string) (want, wantScan string, err error) {
	key := strconv.FormatInt(seed, 10)
	campaign := h.expected["campaign"][key]
	if campaign == "" && (w.analysis || w.traffic) {
		ref, err := h.sample(ctx, workloads[0], seed, work, kindTimed, false)
		if err != nil {
			return "", "", err
		}
		campaign = ref.Hash
	}
	switch {
	case w.analysis:
		return campaign, "", nil
	case w.traffic:
		return h.expected[w.name][key], campaign, nil
	}
	return h.expected[w.name][key], "", nil
}

func (h *harness) sample(ctx context.Context, w workload, seed int64, work, kind string, reuse bool) (*sample, error) {
	var s sample
	err := h.child(ctx, childReq{Kind: kind, Workload: w.name, Seed: seed, Scale: h.scale, Work: work, Reuse: reuse}, &s)
	if err == nil && kind == kindTraced && s.Trace == nil {
		err = errors.New("traced sample returned no trace")
	}
	return &s, err
}

// childTimeout bounds one sample process, so a hung sample fails the run
// instead of stalling it; samples take seconds.
const childTimeout = 2 * time.Minute

// child runs req in a fresh process of this binary and decodes its
// result into v. Cancelling ctx kills the process.
func (h *harness) child(ctx context.Context, req childReq, v any) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	b, err := json.Marshal(req)
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(ctx, childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe)
	cmd.Env = append(os.Environ(), childEnv+"="+string(b), fmt.Sprintf("GOMAXPROCS=%d", workers))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return fmt.Errorf("sample process: %w", err)
	}
	return json.Unmarshal(out, v)
}

// check verifies every sample's output. All samples must produce the same
// dataset, equal to want when known; campaign-traffic's scanner half must
// equal wantScan; clean workloads must have no failed connections (for
// analysis: no cycle whose hash differs), and the hostile workload a
// nonzero failure count that every sample reproduces.
func check(w workload, samples []*sample, want, wantScan string) (problems []string, failed int) {
	if want == "" {
		want = samples[0].Hash
	}
	for i, s := range samples {
		var p []string
		if s.Hash != want {
			p = append(p, fmt.Sprintf("sample %d: dataset sha256 %s, want %s", i, s.Hash, want))
		}
		if w.traffic && s.ScanHash != wantScan {
			p = append(p, fmt.Sprintf("sample %d: scanner half sha256 %s, want the campaign's %s", i, s.ScanHash, wantScan))
		}
		switch {
		case !w.hostile && s.Failed != 0:
			p = append(p, fmt.Sprintf("sample %d: %d failed operations on a fault-free workload", i, s.Failed))
		case w.hostile && s.Failed == 0:
			p = append(p, fmt.Sprintf("sample %d: no failed connections under the fault plan", i))
		case w.hostile && s.Failed != samples[0].Failed:
			p = append(p, fmt.Sprintf("sample %d: %d failed connections, sample 0 had %d", i, s.Failed, samples[0].Failed))
		}
		if len(p) > 0 {
			failed++
			problems = append(problems, p...)
		}
	}
	return problems, failed
}

// endToEndMetrics summarizes an untraced run: the heap sample all[0]
// gives the live heap and one more set-up time, the timed samples
// all[1:] everything else. Times are rescaled by each sample's reference
// mix (see reference). The first five are the reported end-to-end
// metrics; the rest are printed and saved but not reported: wall times
// before rescaling, the reference itself, and fail_share and
// traffic_sessions_per_s, which are zero on some workloads.
func endToEndMetrics(w workload, all []*sample) []metric {
	heap, samples := all[0], all[1:]
	col := func(f func(s *sample) float64) []float64 {
		v := make([]float64, len(samples))
		for i, s := range samples {
			v[i] = f(s)
		}
		return v
	}
	scaled := func(s *sample, sec float64) float64 { return sec * refNominalS / s.RefS }
	var setups, wallSetups []float64
	for _, s := range all {
		if s.SetupS > 0 {
			setups = append(setups, scaled(s, s.SetupS))
			wallSetups = append(wallSetups, s.SetupS)
		}
	}
	ms := []metric{
		summarize("run_s", "s", col(func(s *sample) float64 { return scaled(s, s.RunS) })),
		summarize("setup_s", "s", setups),
		summarize("ops_per_s", "op/s", col(func(s *sample) float64 { return float64(s.Ops) / scaled(s, s.RunS) })),
		summarize("alloc_B_per_op", "B", col(func(s *sample) float64 { return float64(s.AllocB) / float64(s.Ops) })),
		single("live_heap_B_per_domain", "B", float64(heap.PeakLiveB)/float64(heap.Domains)),
		summarize("wall.run_s", "s", col(func(s *sample) float64 { return s.RunS })),
		summarize("wall.setup_s", "s", wallSetups),
		summarize("reference_s", "s", col(func(s *sample) float64 { return s.RefS })),
		summarize("fail_share", "ratio", col(func(s *sample) float64 { return float64(s.Failed) / float64(s.Ops) })),
	}
	if w.traffic {
		ms = append(ms, summarize("traffic_sessions_per_s", "session/s", col(func(s *sample) float64 { return float64(s.Sessions) / scaled(s, s.RunS) })))
	}
	return ms
}

// endToEnd and perLayer list the metrics the summary line carries, in
// BENCHMARK.json order: endToEnd for untraced runs, perLayer for traced
// ones.
var endToEnd = []string{"run_s", "setup_s", "ops_per_s", "alloc_B_per_op", "live_heap_B_per_domain"}

var perLayer = func() []string {
	var names []string
	for _, mb := range micros {
		names = append(names, "micro."+mb.name+".ns")
		if !allocFree[mb.name] {
			names = append(names, "micro."+mb.name+".allocs")
		}
	}
	// Of the CPU buckets only the two that are large on every workload:
	// a 10 ms profile can read zero crypto or repository time on analysis.
	return append(names, "trace_overhead", "phase.unattributed.s", "gc.cycles", "cpu.total.s", "cpu.runtime.s")
}()

// summaryLine renders the last output line. A single run reports its
// metrics by name; a run of every workload prefixes each with the
// workload and mode.
func summaryLine(runs []*result) ([]byte, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: true, Metrics: map[string]value{}}
	for _, r := range runs {
		line.Correct = line.Correct && len(r.Problems) == 0
		line.Attempted += r.Attempted
		line.Failed += r.Failed
		byName := map[string]metric{}
		for _, m := range r.Metrics {
			byName[m.Name] = m
		}
		names := endToEnd
		if r.Trace {
			names = perLayer
		}
		for _, name := range names {
			m, ok := byName[name]
			if !ok {
				return nil, fmt.Errorf("%s: metric %s was not measured", r.Workload, name)
			}
			key := name
			if len(runs) > 1 {
				key = fmt.Sprintf("%s/trace%d/%s", r.Workload, btoi(r.Trace), name)
			}
			line.Metrics[key] = value{m.Median, m.Unit}
		}
	}
	return json.Marshal(line)
}

func (h *harness) writeDoc(r *result, tag string) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(h.out, tag+".json"), append(b, '\n'), 0o644)
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}
