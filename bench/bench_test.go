package main

import (
	"context"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// TestMain lets the test binary serve as its own sample process, as the
// harness binary does.
func TestMain(m *testing.M) {
	if req := os.Getenv(childEnv); req != "" {
		os.Exit(childMain(req, os.Stdout))
	}
	os.Exit(m.Run())
}

// smokeScale keeps every workload to a fraction of a second.
var smokeScale = scale{ListSize: 50, Days: 2, Users: 25, Cycles: 2, Reference: 5}

type declared struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	Workload []struct{ Name string }       `json:"workloads"`
}

func readDeclared(t *testing.T) declared {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(b, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

type line struct {
	Correct   bool
	Attempted int
	Failed    int
	Metrics   map[string]struct {
		Value float64
		Unit  string
	}
}

func runSmoke(t *testing.T, h *harness, w workload, trace bool) (*result, line) {
	t.Helper()
	r, err := h.run(context.Background(), w, 3, 0, trace)
	if err != nil {
		t.Fatalf("%s trace=%v: %v", w.name, trace, err)
	}
	b, err := summaryLine([]*result{r})
	if err != nil {
		t.Fatal(err)
	}
	var l line
	if err := json.Unmarshal(b, &l); err != nil {
		t.Fatal(err)
	}
	return r, l
}

// TestEveryDeclaredMetricEmitted runs every workload in both modes and
// checks the summary line carries exactly the metrics BENCHMARK.json
// declares, with their units, and that the outputs check clean.
func TestEveryDeclaredMetricEmitted(t *testing.T) {
	d := readDeclared(t)
	var names []string
	for _, w := range d.Workload {
		names = append(names, w.Name)
	}
	var have []string
	for _, w := range workloads {
		have = append(have, w.name)
	}
	if strings.Join(names, ",") != strings.Join(have, ",") {
		t.Fatalf("BENCHMARK.json workloads %v, harness has %v", names, have)
	}
	h, err := newHarness(smokeScale, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			r, l := runSmoke(t, h, w, trace)
			if !l.Correct || l.Failed != 0 || l.Attempted < 2 || len(r.Problems) > 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d problems=%v", w.name, trace, l.Correct, l.Attempted, l.Failed, r.Problems)
			}
			want := d.EndToEnd
			if trace {
				want = d.PerLayer
			}
			if len(l.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics emitted, %d declared", w.name, trace, len(l.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := l.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s emitted=%v unit %q, declared unit %q", w.name, trace, m.Name, ok, got.Unit, m.Unit)
				}
			}
			if !trace {
				failShare := findMetric(r, "fail_share").Median
				if w.hostile != (failShare > 0) {
					t.Errorf("%s: fail_share %g", w.name, failShare)
				}
			}
		}
	}
}

func findMetric(r *result, name string) metric {
	for _, m := range r.Metrics {
		if m.Name == name {
			return m
		}
	}
	return metric{}
}

// TestCorruptedExpectedHashFails checks that a recorded hash the samples
// do not reproduce fails the run. (TestEveryDeclaredMetricEmitted covers
// the clean runs.)
func TestCorruptedExpectedHashFails(t *testing.T) {
	h, err := newHarness(smokeScale, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	h.expected = map[string]map[string]string{"campaign": {"3": strings.Repeat("0", 64)}}
	for _, w := range []workload{workloads[0], workloads[3]} { // campaign, and analysis merging back to it
		r, l := runSmoke(t, h, w, false)
		if l.Correct || l.Failed != l.Attempted || len(r.Problems) == 0 {
			t.Errorf("%s: corrupted expected hash passed: correct=%v failed=%d/%d", w.name, l.Correct, l.Failed, l.Attempted)
		}
	}
}

// TestQuartilesMatchPython pins the quartile method to Python's
// statistics.quantiles(v, n=4), which the spread of a benchmark's runs
// is judged with.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		v           []float64
		q1, med, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{4, 1}, 0.25, 2.5, 4.75},
	} {
		m := summarize("x", "s", c.v)
		if m.Q1 != c.q1 || m.Median != c.med || m.Q3 != c.q3 {
			t.Errorf("%v: got %g/%g/%g, want %g/%g/%g", c.v, m.Q1, m.Median, m.Q3, c.q1, c.med, c.q3)
		}
	}
}
