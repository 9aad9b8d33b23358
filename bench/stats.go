package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
)

// metric is one reported number: the median and quartiles of its n
// values, with quartiles as Python's statistics.quantiles(v, n=4)
// computes them (the "exclusive" method).
type metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
}

func summarize(name, unit string, values []float64) metric {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	m := metric{Name: name, Unit: unit, N: len(s), Median: median(s)}
	m.Q1, m.Q3 = m.Median, m.Median
	if len(s) >= 2 {
		m.Q1, m.Q3 = quantile(s, 1), quantile(s, 3)
	}
	return m
}

// single is a metric measured once.
func single(name, unit string, v float64) metric {
	return metric{Name: name, Unit: unit, N: 1, Median: v, Q1: v, Q3: v}
}

// quantile returns the i-th quartile of sorted s (len >= 2).
func quantile(s []float64, i int) float64 {
	const n = 4
	m := len(s) + 1
	j := i * m / n
	j = max(1, min(j, len(s)-1))
	delta := i*m - j*n
	return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// host fingerprints the machine a result was measured on.
type host struct {
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	Commit     string `json:"commit"`
}

func fingerprint() host {
	h := host{GoVersion: runtime.Version(), GOMAXPROCS: workers, NumCPU: runtime.NumCPU(), CPUModel: "unknown", Commit: "unknown"}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	// Only ask git inside a work tree rooted here: a plain source checkout
	// must not pick up the commit of some enclosing repository.
	if _, err := os.Stat(".git"); err == nil {
		if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
			h.Commit = strings.TrimSpace(string(out))
		}
	}
	return h
}

// printTable writes the human-readable result: every metric with its
// unit, sample count, median and quartiles, then the checks and host.
func printTable(w io.Writer, r *result) {
	var b bytes.Buffer
	mode := "end-to-end"
	if r.Trace {
		mode = "per-layer (traced run)"
	}
	fmt.Fprintf(&b, "== %s  seed %d  %s  %d samples  scale %dx%d\n",
		r.Workload, r.Seed, mode, r.Attempted, r.Scale.ListSize, r.Scale.Days)
	fmt.Fprintf(&b, "%-40s %-8s %3s %14s %14s %14s\n", "metric", "unit", "n", "median", "q1", "q3")
	for _, m := range r.Metrics {
		fmt.Fprintf(&b, "%-40s %-8s %3d %14.6g %14.6g %14.6g\n", m.Name, m.Unit, m.N, m.Median, m.Q1, m.Q3)
	}
	if len(r.Problems) == 0 {
		fmt.Fprintf(&b, "checks: ok (dataset sha256 %s)\n", r.Hash)
	}
	for _, p := range r.Problems {
		fmt.Fprintf(&b, "CHECK FAILED: %s\n", p)
	}
	h := r.Host
	fmt.Fprintf(&b, "host: %s GOMAXPROCS=%d nproc=%d cpu=%q commit=%s\n\n", h.GoVersion, h.GOMAXPROCS, h.NumCPU, h.CPUModel, h.Commit)
	w.Write(b.Bytes())
}
