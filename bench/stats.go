package main

import (
	"math"
	"sort"
)

// metricDef names one metric. BENCHMARK.json lists the same metrics
// with the same units; a test keeps the two in step.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are what a caller of the daemon sees, measured untraced.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"req_per_s", "req/s", "higher", 0.10},
	{"latency_p50_ms", "ms", "lower", 0.10},
	{"latency_p95_ms", "ms", "lower", 0.20},
	{"peak_rss_mb", "MB", "lower", 0.10},
}

// perLayer are the layer metrics of a traced run. The replay and
// counter metrics describe the workload's own traffic; the fixture
// metrics time each layer on one fixed link, so they read the same
// on every workload.
var perLayer = []metricDef{
	// In-process replay of the workload's first requests.
	{"trace.overhead_frac", "frac", "lower", 0},
	{"trace.facade_us_p50", "us", "lower", 0},
	{"predintd.self_ms_p50", "ms", "lower", 0},
	{"trace.probe_share", "frac", "lower", 0},
	{"trace.plan_share", "frac", "lower", 0},
	{"trace.collect_share", "frac", "lower", 0},
	{"trace.merge_share", "frac", "lower", 0},
	{"trace.record_share", "frac", "lower", 0},
	{"trace.rung_share", "frac", "lower", 0},
	// Counter deltas over the measured run, from every daemon's /metrics.
	{"predintd.shed", "count", "lower", 0},
	{"predintd.degraded", "count", "lower", 0},
	{"surface.hit_ratio", "ratio", "higher", 0},
	{"surface.records_per_req", "count", "lower", 0},
	{"variation.samples_per_req", "count", "lower", 0},
	{"estimator.wcd_certified_ratio", "ratio", "higher", 0},
	{"coordinator.shards_per_req", "count", "lower", 0},
	{"coordinator.local_fallbacks", "count", "lower", 0},
	{"coordinator.hedges", "count", "lower", 0},
	// Shard protocol sent by the harness to the workload's workers.
	{"coordinator.encode_us", "us", "lower", 0},
	{"coordinator.rpc_us", "us", "lower", 0},
	{"coordinator.decode_us", "us", "lower", 0},
	{"coordinator.collect_us", "us", "lower", 0},
	{"coordinator.merge_us", "us", "lower", 0},
	{"coordinator.bytes_per_shard", "B", "lower", 0},
	{"coordinator.overhead_x", "x", "lower", 0},
	// Layer micro-measurements on the fixture link.
	{"predint.plan_design_us", "us", "lower", 0},
	{"surface.probe_us", "us", "lower", 0},
	{"surface.record_us", "us", "lower", 0},
	{"variation.mc_ns_per_sample", "ns", "lower", 0},
	{"variation.qmc_ns_per_sample", "ns", "lower", 0},
	{"variation.isle_ns_per_sample", "ns", "lower", 0},
	{"variation.merge_us", "us", "lower", 0},
	{"variation.shared_ns_per_candidate_sample", "ns", "lower", 0},
	{"estimator.ais_ns_per_sample", "ns", "lower", 0},
	{"ais.draw_ns", "ns", "lower", 0},
	{"ais.mixture_sample_ns", "ns", "lower", 0},
	{"ais.weight_ns", "ns", "lower", 0},
	{"ais.delay_ns", "ns", "lower", 0},
	{"ais.fit_us", "us", "lower", 0},
	{"estimator.wcd_us", "us", "lower", 0},
	{"buffering.optimize_us", "us", "lower", 0},
	{"buffering.candidates_us", "us", "lower", 0},
	{"sizing.run_ms", "ms", "lower", 0},
}

func unitOf(name string) string {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if d.Name == name {
				return d.Unit
			}
		}
	}
	return ""
}

// percentile is the nearest-rank q-quantile of ascending values.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// quartiles are the three cut points of Python's
// statistics.quantiles(values, n=4), its default exclusive method.
func quartiles(values []float64) (q1, q2, q3 float64) {
	s := sortedCopy(values)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		j = min(max(j, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

func median(values []float64) float64 {
	_, m, _ := quartiles(values)
	return m
}

// spread is the interquartile distance as a share of the median.
func spread(values []float64) float64 {
	q1, m, q3 := quartiles(values)
	if m == 0 {
		return 0
	}
	return math.Abs((q3 - q1) / m)
}

// summary is one metric over the runs of a workload.
type summary struct {
	Unit   string    `json:"unit"`
	Runs   []float64 `json:"runs"`
	Median float64   `json:"median"`
	Min    float64   `json:"min"`
	Max    float64   `json:"max"`
}

func summarize(unit string, runs []float64) summary {
	s := sortedCopy(runs)
	return summary{Unit: unit, Runs: runs, Median: median(runs), Min: s[0], Max: s[len(s)-1]}
}

// Verdicts of compare.
const (
	improved   = "improved"
	unchanged  = "unchanged"
	regressed  = "regressed"
	unresolved = "unresolved"
)

// judge classifies the candidate runs b of one metric against the
// baseline runs a, pairing a[i] with b[i]. A gain needs b to win at
// least nine tenths of the pairs (ties count for neither) and the
// medians to differ by more than a's interquartile distance. With a
// bound, a median worse by more than the bound is a regression, and a
// spread wider than the bound on either side leaves the metric
// unresolved unless every run of b beats every run of a. Without a
// bound the loss rule mirrors the gain rule.
func judge(a, b []float64, better string, bound float64) string {
	sign := 1.0 // > 0 when b is better
	if better == "lower" {
		sign = -1
	}
	ma, mb := median(a), median(b)
	q1, _, q3 := quartiles(a)
	gain := sign * (mb - ma)
	pairs := min(len(a), len(b))
	wins, losses := 0, 0
	for i := 0; i < pairs; i++ {
		switch d := sign * (b[i] - a[i]); {
		case d > 0:
			wins++
		case d < 0:
			losses++
		}
	}
	clear := math.Abs(gain) > q3-q1
	if bound > 0 {
		if spread(a) > bound || spread(b) > bound {
			if sign*(worst(b, sign)-best(a, sign)) > 0 {
				return improved
			}
			return unresolved
		}
		if -gain > bound*math.Abs(ma) {
			return regressed
		}
	} else if pairs > 0 && losses*10 >= 9*pairs && gain < 0 && clear {
		return regressed
	}
	if pairs > 0 && wins*10 >= 9*pairs && gain > 0 && clear {
		return improved
	}
	return unchanged
}

// worst and best pick from v by the direction sign (> 0: higher is
// better).
func worst(v []float64, sign float64) float64 {
	s := sortedCopy(v)
	if sign > 0 {
		return s[0]
	}
	return s[len(s)-1]
}

func best(v []float64, sign float64) float64 {
	s := sortedCopy(v)
	if sign > 0 {
		return s[len(s)-1]
	}
	return s[0]
}
