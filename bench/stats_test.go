package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

// The reference values are Python's statistics.quantiles(v, n=4), the
// statistic the benchmark's spread is judged by.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3.1, 0.5, 9.75, 2.25, 7.0, 4.4, 1.0}, [3]float64{1.0, 3.1, 7.0}},
		{[]float64{5, 1}, [3]float64{0, 3, 6}},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.in)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); got != (8.25-2.75)/5.5 {
		t.Errorf("spread = %v", got)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	v := make([]float64, 100)
	for i := range v {
		v[i] = float64(i + 1)
	}
	for q, want := range map[float64]float64{0.5: 50, 0.95: 95, 0.99: 99, 1: 100, 0.001: 1} {
		if got := percentile(v, q); got != want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", q, got, want)
		}
	}
}

func TestJudge(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(v []float64, f float64) []float64 {
		out := make([]float64, len(v))
		for i := range v {
			out[i] = v[i] * f
		}
		return out
	}
	noisy := []float64{70, 130, 90, 110, 60, 140, 100, 80, 120, 100}
	cases := []struct {
		name   string
		a, b   []float64
		better string
		bound  float64
		want   string
	}{
		{"faster on every pair", base, shift(base, 0.9), "lower", 0.1, improved},
		{"higher throughput on every pair", base, shift(base, 1.05), "higher", 0.1, improved},
		{"slower beyond the bound", base, shift(base, 1.15), "lower", 0.1, regressed},
		{"slower within the bound", base, shift(base, 1.05), "lower", 0.1, unchanged},
		{"identical", base, base, "lower", 0.1, unchanged},
		{"spread wider than the bound", noisy, shift(noisy, 0.97), "lower", 0.1, unresolved},
		{"spread wide but every run better", noisy, shift(noisy, 0.3), "lower", 0.1, improved},
		{"unbounded loss on every pair", base, shift(base, 1.2), "lower", 0, regressed},
		{"unbounded gain within the quartile spread", base, shift(base, 0.995), "lower", 0, unchanged},
	}
	for _, c := range cases {
		if got := judge(c.a, c.b, c.better, c.bound); got != c.want {
			t.Errorf("%s: judge = %s, want %s", c.name, got, c.want)
		}
	}
}

// TestBenchmarkJSONMatchesHarness keeps BENCHMARK.json, which names the
// benchmark's workloads and bounds and which compare reads, in step with
// the metrics and workloads the harness reports.
func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf struct {
		benchmarkFile
		Workloads []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
	}
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bf.EndToEnd, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end\n%+v\ndiffers from the harness's\n%+v", bf.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(bf.PerLayer, perLayer) {
		t.Errorf("BENCHMARK.json per_layer\n%+v\ndiffers from the harness's\n%+v", bf.PerLayer, perLayer)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the harness %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bf.Workloads[i].Name != w.name || bf.Workloads[i].Why != w.why {
			t.Errorf("BENCHMARK.json workload %d is %+v, the harness's is %s: %s", i, bf.Workloads[i], w.name, w.why)
		}
	}
}
