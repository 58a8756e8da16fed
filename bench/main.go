// Command bench is the repository's benchmark. It spawns predintd (and,
// for scale-out, two worker daemons) on loopback, drives one of four
// traffic mixes through it as closed-loop clients for a fixed time,
// checks every answer against the in-process facade, and prints the
// end-to-end metrics; with -trace 1 it also replays the workload
// in-process under spans and times each layer, and prints the
// per-layer metrics instead. The last line of its output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
//
// Usage, from the repository root (run.sh builds both binaries first):
//
//	bash bench/run.sh [-workload name,...|all] [-seed N] [-seconds S]
//	                  [-runs N] [-trace 0|1] [-out result.json]
//	bash bench/run.sh compare [-benchmark BENCHMARK.json] A.json B.json
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"

	predint "repro"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		if !errors.Is(err, flag.ErrHelp) {
			fmt.Fprintln(os.Stderr, "bench:", err)
		}
		os.Exit(1)
	}
}

// config is one invocation's settings.
type config struct {
	bin     string // the predintd binary
	seconds int
	trace   bool
}

// setupRepeats is how many times each run sets the workload up; the
// last set-up serves the run and setup_s is the median.
const setupRepeats = 5

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	names := fs.String("workload", "all", "comma-separated workloads, or all")
	seed := fs.Uint64("seed", 1, "workload seed: the same seed sends the same requests")
	seconds := fs.Int("seconds", 20, "measured seconds per run")
	runs := fs.Int("runs", 1, "runs per workload, all at the same seed")
	trace := fs.Int("trace", 0, "1: also replay in-process under spans and report the per-layer metrics")
	out := fs.String("out", "", "write the full result, with provenance and every run, to this JSON file")
	spansOut := fs.String("spans", ".bench_build/spans.json", "with -trace 1, write the replay's spans to this JSON file")
	bin := fs.String("predintd", "", "the predintd binary (bench/run.sh builds it)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.Arg(0) == "compare" {
		return compareCmd(fs.Args()[1:], stdout)
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if *bin == "" {
		return errors.New("-predintd is required; run through bench/run.sh")
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("-trace %d, want 0 or 1", *trace)
	}
	if *seconds < 1 || *runs < 1 {
		return fmt.Errorf("-seconds %d and -runs %d must be at least 1", *seconds, *runs)
	}
	var ws []workload
	if *names == "all" {
		ws = workloads
	} else {
		for _, n := range strings.Split(*names, ",") {
			w, ok := workloadNamed(n)
			if !ok {
				return fmt.Errorf("unknown workload %q", n)
			}
			ws = append(ws, w)
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	cfg := config{bin: *bin, seconds: *seconds, trace: *trace == 1}
	rep := newReport(*seed, cfg)
	spans := map[string][]span{}
	for _, w := range ws {
		wr := workloadReport{Name: w.name, Why: w.why, Conns: w.conns, CPUs: runtime.NumCPU()}
		if w.oneCPU {
			wr.CPUs = 1
		}
		for r := 1; r <= *runs; r++ {
			rr, sp, err := runOnce(ctx, cfg, w, *seed)
			if err != nil {
				return fmt.Errorf("%s: %w", w.name, err)
			}
			printRun(stdout, w.name, r, *runs, rr, cfg.trace)
			wr.Runs = append(wr.Runs, *rr)
			spans[w.name] = sp
		}
		wr.Metrics = map[string]summary{}
		for name := range wr.Runs[0].Metrics {
			var vs []float64
			for _, rr := range wr.Runs {
				vs = append(vs, rr.Metrics[name])
			}
			wr.Metrics[name] = summarize(unitOf(name), vs)
		}
		rep.Workloads = append(rep.Workloads, wr)
	}
	if *out != "" {
		if err := writeJSON(*out, rep); err != nil {
			return err
		}
	}
	if cfg.trace {
		if err := writeJSON(*spansOut, spans); err != nil {
			return err
		}
	}
	return printLast(stdout, rep, cfg.trace)
}

// runOnce sets the workload up setupRepeats times, drives the last
// set-up for cfg.seconds, checks every answer, and, when tracing,
// measures the layers.
func runOnce(ctx context.Context, cfg config, w workload, seed uint64) (*runReport, []span, error) {
	seq, err := w.newSeq(seed, w.warmup)
	if err != nil {
		return nil, nil, err
	}
	unpin := func() {}
	if w.oneCPU {
		if unpin, err = pinToOneCPU(); err != nil {
			return nil, nil, err
		}
	}
	defer func() { unpin() }()
	// The harness's own garbage collections run on the daemon's CPU when
	// the two share one; collecting less often keeps them out of the
	// daemon's latency tail.
	defer debug.SetGCPercent(debug.SetGCPercent(800))

	all := newTally()
	c, cl, setupSeconds, setupSpeed, err := setUp(ctx, cfg.bin, w, seq, all)
	if err != nil {
		return nil, nil, err
	}
	defer c.stop()
	defer cl.close()
	rr, scaled, counters, err := measure(ctx, cfg.seconds, w, seq, c, cl, all)
	if err != nil {
		return nil, nil, err
	}
	rr.SetupSpeed = setupSpeed
	rr.Raw["setup_s"] = setupSeconds
	rr.Metrics["setup_s"] = setupSeconds * setupSpeed

	var tp *probe
	if cfg.trace {
		// The traced phase runs under a probe of its own, whose reading
		// scales its times to reference speed at the end.
		tp = startProbe()
		defer func() {
			if tp != nil {
				tp.finish()
			}
		}()
		for k, v := range counters {
			rr.Metrics[k] = v
		}
		worker := c.front.addr
		if len(c.workers) > 0 {
			worker = c.workers[0].addr
		}
		reqs, err := splitRequests(w, seq)
		if err != nil {
			return nil, nil, err
		}
		m, checks, err := shardSplit(ctx, worker, reqs, all)
		if err != nil {
			return nil, nil, fmt.Errorf("shard split: %w", err)
		}
		rr.add(m, checks)
	}
	cl.close()
	c.stop()
	unpin()
	unpin = func() {}
	all.verify(seq)

	var spans []span
	if cfg.trace {
		rp, err := replayWorkload(ctx, w, seq, all)
		if err != nil {
			return nil, nil, err
		}
		rr.add(rp.metrics, map[string]float64{"sizing.resized_frac": rp.resized})
		spans = rp.spans
		m, checks, err := layerMetrics(ctx)
		if err != nil {
			return nil, nil, fmt.Errorf("layer metrics: %w", err)
		}
		rr.add(m, checks)

		v := speed(tp.finish())
		tp = nil
		rr.Checks["trace.host_speed"] = v
		for _, d := range perLayer {
			switch d.Unit {
			case "ns", "us", "ms":
				rr.Metrics[d.Name] *= v
			}
		}
		// The serving layer's own time: the client's latency less the
		// in-process time, both at reference speed.
		var self []float64
		for idx, d := range rp.facade {
			if l, ok := scaled[idx]; ok {
				self = append(self, l-float64(d)/1e6*v)
			}
		}
		rr.Metrics["predintd.self_ms_p50"] = percentile(sortedCopy(self), 0.5)
	}
	rr.Attempted, rr.Failed, rr.Failures = all.attempted, all.failed, all.reasons
	rr.Distinct = len(all.answers)
	return rr, spans, nil
}

// setUp starts the workload's daemons and sends the warm-up
// setupRepeats times, keeping the last set-up, and returns the median
// set-up time with the probe's speed reading over the set-ups.
func setUp(ctx context.Context, bin string, w workload, seq *sequence, all *tally) (*cluster, *clients, float64, float64, error) {
	p := startProbe()
	var c *cluster
	var cl *clients
	var times []float64
	for i := 0; i < setupRepeats; i++ {
		if c != nil {
			cl.close()
			c.stop()
		}
		start := time.Now()
		var err error
		if c, err = startCluster(ctx, bin, w); err != nil {
			p.finish()
			return nil, nil, 0, 0, err
		}
		cl = newClients(c.front.addr, w.conns)
		t, err := cl.drive(ctx, seq, 0, w.warmup, time.Time{}, false)
		if err != nil {
			p.finish()
			cl.close()
			c.stop()
			return nil, nil, 0, 0, err
		}
		times = append(times, time.Since(start).Seconds())
		all.merge(t)
	}
	return c, cl, median(times), speed(p.finish()), nil
}

// measure drives the set-up workload for seconds and returns its
// end-to-end metrics, each answer's latency at reference speed by
// sequence index, and the daemons' counter metrics over the run.
func measure(ctx context.Context, seconds int, w workload, seq *sequence, c *cluster, cl *clients, all *tally) (*runReport, map[int]float64, map[string]float64, error) {
	before, err := c.counters(ctx)
	if err != nil {
		return nil, nil, nil, err
	}
	p := startProbe()
	start := time.Now()
	measured, err := cl.drive(ctx, seq, w.warmup, 0, start.Add(time.Duration(seconds)*time.Second), true)
	elapsed := time.Since(start)
	samples := p.finish()
	if err != nil {
		return nil, nil, nil, err
	}
	after, err := c.counters(ctx)
	if err != nil {
		return nil, nil, nil, err
	}
	rss, err := c.peakRSSMB()
	if err != nil {
		return nil, nil, nil, err
	}
	all.merge(measured)

	raw := make([]float64, len(measured.lat))
	for i, t := range measured.lat {
		raw[i] = float64(t.d) / 1e6
	}
	raw = sortedCopy(raw)
	rate, scaled := normalize(start, seconds, measured.lat, samples)
	lat := make([]float64, 0, len(scaled))
	for _, v := range scaled {
		lat = append(lat, v)
	}
	lat = sortedCopy(lat)
	rr := &runReport{
		Measured:  measured.attempted,
		HostSpeed: speed(samples),
		Raw: map[string]float64{
			"req_per_s":      float64(len(measured.lat)) / elapsed.Seconds(),
			"latency_p50_ms": percentile(raw, 0.50),
			"latency_p95_ms": percentile(raw, 0.95),
		},
		Metrics: map[string]float64{
			"req_per_s":      rate,
			"latency_p50_ms": percentile(lat, 0.50),
			"latency_p95_ms": percentile(lat, 0.95),
			"peak_rss_mb":    rss,
		},
		Checks: map[string]float64{},
	}
	return rr, scaled, counterMetrics(before, after, measured.attempted), nil
}

// counterMetrics turns the daemons' counter deltas over the measured
// run into per-layer metrics; requests is the number of measured
// requests.
func counterMetrics(before, after map[string]int64, requests int) map[string]float64 {
	d := func(name string) float64 { return float64(after[name] - before[name]) }
	ratio := func(num float64, den ...float64) float64 {
		total := num
		for _, v := range den {
			total += v
		}
		if total == 0 {
			return 0
		}
		return num / total
	}
	n := float64(requests)
	return map[string]float64{
		"predintd.shed":                 d("predintd.shed"),
		"predintd.degraded":             d("predintd.degraded"),
		"surface.hit_ratio":             ratio(d("predintd.yield_surface_hits"), d("predintd.yield_surface_misses")),
		"surface.records_per_req":       d("surface.records") / n,
		"variation.samples_per_req":     d("variation.samples_drawn") / n,
		"estimator.wcd_certified_ratio": ratio(d("variation.wcd_certified"), d("variation.wcd_refuted"), d("variation.wcd_inconclusive")),
		"coordinator.shards_per_req":    d("coordinator.shards_served") / n,
		"coordinator.local_fallbacks":   d("coordinator.local_fallbacks"),
		"coordinator.hedges":            d("coordinator.hedges"),
	}
}

// splitRequests are the queries the shard split sends: scale-out's own
// first measured queries, and for the other workloads — whose traffic
// the front does not shard — the shardable rungs on the fixture link.
func splitRequests(w workload, seq *sequence) ([]predint.YieldRequest, error) {
	const n = 48
	var reqs []predint.YieldRequest
	if w.workers > 0 {
		for i := w.warmup; len(reqs) < n; i++ {
			_, sp, err := seq.request(i)
			if err != nil {
				return nil, err
			}
			reqs = append(reqs, sp.body.yieldRequest())
		}
		return reqs, nil
	}
	f, err := newFixture()
	if err != nil {
		return nil, err
	}
	for len(reqs) < n {
		r := scaleRungs[len(reqs)%len(scaleRungs)]
		reqs = append(reqs, f.request(r.estimator, r.sigmas[0], 2048))
	}
	return reqs, nil
}

// report is the full result of one invocation.
type report struct {
	Commit     string           `json:"commit"`
	Seed       uint64           `json:"seed"`
	Seconds    int              `json:"seconds"`
	Trace      bool             `json:"trace"`
	GOMAXPROCS int              `json:"gomaxprocs"`
	NProc      int              `json:"nproc"`
	CPUModel   string           `json:"cpu_model"`
	GoVersion  string           `json:"go_version"`
	Workloads  []workloadReport `json:"workloads"`
}

type workloadReport struct {
	Name  string `json:"name"`
	Why   string `json:"why"`
	Conns int    `json:"conns"`
	// CPUs is how many CPUs the harness and the daemons ran on, and so
	// the daemons' GOMAXPROCS.
	CPUs    int                `json:"cpus"`
	Runs    []runReport        `json:"runs"`
	Metrics map[string]summary `json:"metrics"`
}

type runReport struct {
	// Attempted counts every request sent, set-up warm-ups included;
	// Measured the requests of the timed window.
	Attempted int      `json:"attempted"`
	Measured  int      `json:"measured"`
	Distinct  int      `json:"distinct_requests"`
	Failed    int      `json:"failed"`
	Failures  []string `json:"failures,omitempty"`
	// HostSpeed and SetupSpeed are the speed probe's readings over the
	// measured run and over the set-ups; Raw holds the time metrics over
	// the whole run as the clock read them, unscaled.
	HostSpeed  float64            `json:"host_speed"`
	SetupSpeed float64            `json:"setup_host_speed"`
	Raw        map[string]float64 `json:"raw"`
	Metrics    map[string]float64 `json:"metrics"`
	// Checks are reconciliation and workload-shape figures that are not
	// metrics: the AIS and coordinator splits' sums against the whole
	// call, the share of sizing answers resized.
	Checks map[string]float64 `json:"checks,omitempty"`
}

// add merges metrics and checks into the run's.
func (rr *runReport) add(metrics, checks map[string]float64) {
	for k, v := range metrics {
		rr.Metrics[k] = v
	}
	for k, v := range checks {
		rr.Checks[k] = v
	}
}

func newReport(seed uint64, cfg config) *report {
	return &report{
		Commit:     commit(),
		Seed:       seed,
		Seconds:    cfg.seconds,
		Trace:      cfg.trace,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      runtime.NumCPU(),
		CPUModel:   cpuModel(),
		GoVersion:  runtime.Version(),
	}
}

// commit is the VCS revision the harness was built from, when the
// build saw one.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "-dirty"
	}
	return rev
}

func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func writeJSON(path string, v any) error {
	raw, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// contract lists the metrics the last output line carries.
func contract(trace bool) []metricDef {
	if trace {
		return perLayer
	}
	return endToEnd
}

func printRun(w io.Writer, name string, r, runs int, rr *runReport, trace bool) {
	fmt.Fprintf(w, "%s run %d/%d: %d requests (%d measured, %d distinct), %d failed\n",
		name, r, runs, rr.Attempted, rr.Measured, rr.Distinct, rr.Failed)
	for _, f := range rr.Failures {
		fmt.Fprintf(w, "  failure: %s\n", f)
	}
	for _, d := range contract(trace) {
		fmt.Fprintf(w, "  %-42s %14.6g %s\n", d.Name, rr.Metrics[d.Name], d.Unit)
	}
	var checks []string
	for k := range rr.Checks {
		checks = append(checks, k)
	}
	sort.Strings(checks)
	for _, k := range checks {
		fmt.Fprintf(w, "  check %-36s %14.6g\n", k, rr.Checks[k])
	}
}

// printLast writes the one-line JSON result: each metric's median over
// the runs, prefixed by the workload's name when there are several.
func printLast(w io.Writer, rep *report, trace bool) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Metrics: map[string]value{}}
	for _, wr := range rep.Workloads {
		for _, rr := range wr.Runs {
			out.Attempted += rr.Attempted
			out.Failed += rr.Failed
		}
		prefix := ""
		if len(rep.Workloads) > 1 {
			prefix = wr.Name + "."
		}
		for _, d := range contract(trace) {
			out.Metrics[prefix+d.Name] = value{wr.Metrics[d.Name].Median, d.Unit}
		}
	}
	out.Correct = out.Failed == 0
	raw, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", raw)
	return err
}
