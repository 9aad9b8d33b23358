package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"

	"tlsshortcuts/internal/faults"
	"tlsshortcuts/internal/population"
	"tlsshortcuts/internal/study"
	"tlsshortcuts/internal/traffic"
)

// workers is the scanner and traffic pool size of every workload; samples
// run with GOMAXPROCS=2 to match.
const workers = 2

// scale sizes the workloads. Every sample of a run uses the same scale.
type scale struct {
	ListSize int `json:"list_size"`
	Days     int `json:"days"`
	Users    int `json:"traffic_users"`
	Cycles   int `json:"analysis_cycles"`
	// Reference is the reference mix's iterations per goroutine.
	Reference int `json:"reference_iterations"`
}

// fullScale is the benchmark's size: a campaign sample takes about 2 s
// on a 2-CPU host, so a 25 s run holds several fresh-process samples.
var fullScale = scale{ListSize: 300, Days: 12, Users: 150, Cycles: 120, Reference: 1000}

// analysisShards is how many shard datasets the analysis workload merges.
const analysisShards = 3

// workload is one set of inputs the benchmark runs. The three campaign
// workloads share one scanner configuration, so the scanner half of
// campaign-traffic and the merged dataset of analysis are byte-identical
// to campaign's dataset for the same seed.
type workload struct {
	name     string
	traffic  bool // simulated users drive resumption-heavy browser traffic
	hostile  bool // weak-crypto operators plus refusal/reset/flap/churn faults
	analysis bool // offline load→merge→report loop over saved shards
}

var workloads = []workload{
	{name: "campaign"},
	{name: "campaign-traffic", traffic: true},
	{name: "campaign-hostile", hostile: true},
	{name: "analysis", analysis: true},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// options returns the campaign the workload runs; for analysis, the
// campaign whose shards it analyses.
func (w workload) options(seed int64, sc scale) study.Options {
	o := study.Options{ListSize: sc.ListSize, Days: sc.Days, Seed: seed, Workers: workers}
	if w.traffic {
		o.Traffic = &traffic.Options{Users: sc.Users}
	}
	if w.hostile {
		// Stall is left out: it waits on wall-clock deadlines, so it would
		// measure sleep rather than work.
		o.WeakCrypto = true
		o.Faults = &faults.Options{Seed: seed, Refuse: 0.02, Reset: 0.02, Flap: 0.01, Churn: 0.02, ChurnMaxDays: 3}
	}
	return o
}

// sample is what one fresh process measured for one workload.
type sample struct {
	RunS      float64 `json:"run_s"`
	SetupS    float64 `json:"setup_s,omitempty"` // zero when the sample reused another's set-up
	Ops       uint64  `json:"ops"`               // TLS connections dialed, or analysis cycles
	AllocB    uint64  `json:"alloc_b"`           // bytes allocated during the timed run
	PeakLiveB uint64  `json:"peak_live_b"`       // heap samples: peak live heap at quiescent points
	Domains   int     `json:"domains"`
	Failed    uint64  `json:"failed"` // failed connections, or cycles whose hash differed
	Sessions  uint64  `json:"traffic_sessions"`
	Hash      string  `json:"hash"`                // sha256 of the dataset JSON (merged, for analysis)
	ScanHash  string  `json:"scan_hash,omitempty"` // campaign-traffic: hash with the traffic plane stripped
	RefS      float64 `json:"ref_s"`               // the reference mix's mean time around the sample
	Trace     *traced `json:"trace,omitempty"`
}

// Sample kinds. A run's end-to-end timings come from timed samples; one
// heap sample per run measures the live heap at quiescent points, and one
// traced sample per traced run records spans, counters and a CPU profile.
const (
	kindTimed  = "timed"
	kindHeap   = "heap"
	kindTraced = "traced"
	kindMicro  = "micro"
)

// runSample measures one sample in the current process, between two
// runs of the reference mix.
func runSample(w workload, req childReq) (*sample, error) {
	before := reference(req.Scale.Reference)
	var s *sample
	var err error
	if w.analysis {
		s, err = analysisSample(req)
	} else {
		s, err = campaignSample(w, req)
	}
	if err != nil {
		return nil, err
	}
	s.RefS = (before + reference(req.Scale.Reference)) / 2
	return s, nil
}

func campaignSample(w workload, req childReq) (*sample, error) {
	o := w.options(req.Seed, req.Scale)
	var tr *tracer
	var heap *liveHeap
	switch req.Kind {
	case kindTraced:
		var err error
		if tr, err = startTracer(&o, req.Work); err != nil {
			return nil, err
		}
	case kindHeap:
		// study.Run writes one span per phase from its coordinator
		// goroutine after the phase's workers have joined: the campaign's
		// quiescent moments.
		heap = newLiveHeap()
		o.Trace = heap
	}
	var s sample
	var ds *study.Dataset
	err := timed(&s, tr, func() (err error) {
		ds, err = study.Run(o)
		return err
	})
	if err != nil {
		return nil, err
	}
	s.Ops = ds.Dials
	s.Domains = ds.ListSize
	s.Failed = failedConns(ds)
	s.PeakLiveB = heap.peakBytes()
	if ds.Traffic != nil {
		s.Sessions = ds.Traffic.Conns()
		scan := *ds
		scan.Traffic = nil
		if s.ScanHash, err = datasetHash(&scan); err != nil {
			return nil, err
		}
	}
	if s.Hash, err = datasetHash(ds); err != nil {
		return nil, err
	}
	if tr != nil {
		s.Trace = tr.campaign(s.RunS)
	}
	// Set-up is timed after the campaign so the campaign itself pays the
	// process-global caches cold, as a user's first campaign does.
	builds := make([]float64, 5)
	for i := range builds {
		start := time.Now()
		if _, err := population.Build(population.Options{ListSize: o.ListSize, Seed: o.Seed, WeakCrypto: o.WeakCrypto}); err != nil {
			return nil, err
		}
		builds[i] = time.Since(start).Seconds()
	}
	s.SetupS = median(builds)
	return &s, nil
}

// analysisSample saves the campaign workload's dataset as shards (the
// set-up, skipped when the request reuses an earlier sample's shards),
// then times Cycles passes of the offline path behind cmd/report and
// studyrun -merge: load the shards, merge, build and render the report,
// and hash the merged dataset's JSON. A heap sample runs one pass,
// collecting after every step.
func analysisSample(req childReq) (*sample, error) {
	o := workloads[0].options(req.Seed, req.Scale)
	var s sample
	start := time.Now()
	paths := make([]string, analysisShards)
	for i := range paths {
		paths[i] = filepath.Join(req.Work, fmt.Sprintf("shard%d.json", i))
		if req.Reuse {
			continue
		}
		so := o
		so.Shard = &study.ShardSpec{Index: i, Count: analysisShards}
		ds, err := study.Run(so)
		if err != nil {
			return nil, err
		}
		if err := ds.Save(paths[i]); err != nil {
			return nil, err
		}
	}
	if !req.Reuse {
		s.SetupS = time.Since(start).Seconds()
	}

	var tr *tracer
	var heap *liveHeap
	step := func(string) {}
	cycles := req.Scale.Cycles
	switch req.Kind {
	case kindTraced:
		var err error
		if tr, err = startTracer(nil, req.Work); err != nil {
			return nil, err
		}
		step = tr.step
	case kindHeap:
		heap = newLiveHeap()
		step = func(string) { heap.collect() }
		cycles = 1
	}
	err := timed(&s, tr, func() error {
		for c := 0; c < cycles; c++ {
			h, domains, err := analysisCycle(paths, step)
			if err != nil {
				return err
			}
			if c == 0 {
				s.Hash, s.Domains = h, domains
			} else if h != s.Hash {
				s.Failed++
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	s.Ops = uint64(cycles)
	s.PeakLiveB = heap.peakBytes()
	if tr != nil {
		s.Trace = tr.analysis(s.RunS)
	}
	return &s, nil
}

// analysisCycle runs one load→merge→report→hash pass, calling step at
// the start ("") and after each step.
func analysisCycle(paths []string, step func(name string)) (hash string, domains int, err error) {
	step("")
	shards := make([]*study.Dataset, len(paths))
	for i, p := range paths {
		if shards[i], err = study.Load(p); err != nil {
			return "", 0, err
		}
	}
	step("load")
	merged, err := study.MergeDatasets(shards...)
	if err != nil {
		return "", 0, err
	}
	step("merge")
	rep := study.BuildReport(merged)
	step("build_report")
	if len(rep.String()) == 0 {
		return "", 0, fmt.Errorf("analysis: empty report")
	}
	step("render")
	hash, err = datasetHash(merged)
	step("encode_hash")
	return hash, merged.ListSize, err
}

// timed runs f as the sample's measured region, from a collected heap:
// wall time and bytes allocated.
func timed(s *sample, tr *tracer, f func() error) error {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	if err := tr.begin(); err != nil {
		return err
	}
	start := time.Now()
	err := f()
	s.RunS = time.Since(start).Seconds()
	if endErr := tr.end(); err == nil {
		err = endErr
	}
	runtime.ReadMemStats(&m1)
	s.AllocB = m1.TotalAlloc - m0.TotalAlloc
	if tr != nil {
		tr.gcCycles = m1.NumGC - m0.NumGC
	}
	return err
}

// liveHeap records the peak live heap over forced collections. Forcing
// the collection at a quiescent point measures what is reachable there;
// sampling a running campaign would also count the floating garbage of
// a concurrent mark, which depends on timing.
type liveHeap struct {
	samples []metrics.Sample
	peak    uint64
}

func newLiveHeap() *liveHeap {
	return &liveHeap{samples: []metrics.Sample{{Name: "/gc/heap/live:bytes"}}}
}

func (l *liveHeap) collect() {
	runtime.GC()
	metrics.Read(l.samples)
	l.peak = max(l.peak, l.samples[0].Value.Uint64())
}

// Write makes liveHeap a study.Options.Trace writer: it collects at every
// phase boundary and discards the span.
func (l *liveHeap) Write(p []byte) (int, error) {
	l.collect()
	return len(p), nil
}

func (l *liveHeap) peakBytes() uint64 {
	if l == nil {
		return 0
	}
	return l.peak
}

// failedConns counts the dataset's failed connections: scan failures,
// cross-domain failures and failed traffic visits.
func failedConns(ds *study.Dataset) uint64 {
	var n uint64
	for _, f := range ds.Failures {
		n += uint64(f.Count)
	}
	if ds.XDStats != nil {
		n += uint64(ds.XDStats.InitFailed + ds.XDStats.ProbeFailed)
	}
	if ds.Traffic != nil {
		for _, p := range ds.Traffic.Policies {
			n += p.Failed
		}
	}
	return n
}

// datasetHash is the sha256 of the dataset's JSON, the same bytes
// Dataset.Save writes (so it matches sha256sum of a studyrun -out file).
func datasetHash(ds *study.Dataset) (string, error) {
	b, err := json.Marshal(ds)
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("%x", sha256.Sum256(b)), nil
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
