package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"time"

	predint "repro"
	"repro/internal/coordinator"
	"repro/internal/surface"
	"repro/internal/variation"
)

// span is one timed call of the traced replay.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a request's root span
	Req    int    `json:"req"`    // sequence index of the request
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps the spans of a replay in memory.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) begin(req, parent int, name string) int {
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Req: req, Name: name, Start: int64(time.Since(t.epoch))})
	return len(t.spans)
}

func (t *tracer) end(id int) { t.spans[id-1].End = int64(time.Since(t.epoch)) }

// wrap runs fn inside a span.
func (t *tracer) wrap(req, parent int, name string, fn func() error) error {
	id := t.begin(req, parent, name)
	err := fn()
	t.end(id)
	return err
}

// Stages of the replay chain, in the order the daemon runs them; rung
// is a whole facade call for the paths that do not decompose (AIS, the
// WCD cascade, sizing, batches).
var stages = []string{"probe", "plan", "collect", "merge", "record", "rung"}

// replay runs one request in-process as the chain of public-layer calls
// the daemon makes — surface probe, plan, collect, merge, record —
// recording each as a child span of the request's root span.
func replay(ctx context.Context, t *tracer, idx int, sp *spec, sf predint.Surfaced) (*golden, error) {
	root := t.begin(idx, 0, "request")
	defer t.end(root)
	out := &golden{}
	if sp.batch() {
		req := sp.body.batchRequest()
		if !req.NoSurface {
			ok := false
			err := t.wrap(idx, root, "probe", func() (err error) {
				out.batch, ok, err = sf.LinkYieldBatchSurfaceCtx(ctx, req)
				return err
			})
			if err != nil || ok {
				return out, err
			}
		}
		return out, t.wrap(idx, root, "rung", func() (err error) {
			out.batch, err = sf.LinkYieldBatchCtx(ctx, req)
			return err
		})
	}

	req := sp.body.yieldRequest()
	if !req.NoSurface {
		ok := false
		err := t.wrap(idx, root, "probe", func() (err error) {
			out.single, ok, err = sf.LinkYieldSurfaceCtx(ctx, req)
			return err
		})
		if err != nil || ok {
			return out, err
		}
	}
	var plan *predint.YieldShardPlan
	err := t.wrap(idx, root, "plan", func() (err error) {
		plan, err = predint.YieldShardPlanFor(req)
		return err
	})
	if errors.Is(err, predint.ErrNotShardable) {
		return out, t.wrap(idx, root, "rung", func() (err error) {
			out.single, err = sf.LinkYieldCtx(ctx, req)
			return err
		})
	}
	if err != nil {
		return out, err
	}
	var part variation.Partial
	var shifted bool
	if err := t.wrap(idx, root, "collect", func() (err error) {
		part, shifted, err = plan.CollectCtx(ctx, 0, plan.Samples())
		return err
	}); err != nil {
		return out, err
	}
	if err := t.wrap(idx, root, "merge", func() error {
		est, _, err := plan.Merge([]variation.Partial{part}, shifted)
		out.single = plan.Result(est)
		return err
	}); err != nil {
		return out, err
	}
	if !req.NoSurface {
		return out, t.wrap(idx, root, "record", func() error { return sf.RecordYield(req, out.single) })
	}
	return out, nil
}

// untraced answers a request the way the daemon does, through the
// facade entry points with no spans: the baseline of trace.overhead_frac.
func untraced(ctx context.Context, sp *spec, sf predint.Surfaced) error {
	if sp.batch() {
		req := sp.body.batchRequest()
		if !req.NoSurface {
			if _, ok, err := sf.LinkYieldBatchSurfaceCtx(ctx, req); err != nil || ok {
				return err
			}
		}
		_, err := sf.LinkYieldBatchCtx(ctx, req)
		return err
	}
	req := sp.body.yieldRequest()
	if !req.NoSurface {
		if _, ok, err := sf.LinkYieldSurfaceCtx(ctx, req); err != nil || ok {
			return err
		}
	}
	_, err := sf.LinkYieldCtx(ctx, req)
	return err
}

// sameAnswer compares a replayed answer with the golden one.
func sameAnswer(sp *spec, got, want *golden) error {
	if want.err != nil {
		return fmt.Errorf("the in-process facade rejects the request: %v", want.err)
	}
	if !sp.batch() {
		return sameResult(dtoOf(got.single), want.single)
	}
	if len(got.batch.Results) != len(want.batch.Results) {
		return fmt.Errorf("batch answer has %d results, want %d", len(got.batch.Results), len(want.batch.Results))
	}
	for i, r := range got.batch.Results {
		if err := sameResult(dtoOf(r), want.batch.Results[i]); err != nil {
			return fmt.Errorf("candidate %d: %w", i, err)
		}
	}
	return nil
}

// Replay sizes: the traced pass covers replayTraced measured requests,
// the untraced comparison the first replayUntraced of them.
const (
	replayTraced   = 2000
	replayUntraced = 500
)

// replayResult is what the traced replay of a workload measured.
type replayResult struct {
	spans   []span
	metrics map[string]float64
	facade  map[int]time.Duration // in-process time by sequence index
	resized float64               // share of replayed answers a yield target resized
}

// replayWorkload replays the warm-up requests and then the first
// replayTraced measured requests in order, in-process, against a
// surface cache of its own — the state the daemon's cache went
// through. Every answer is checked against its golden; a mismatch
// counts in all as failed.
func replayWorkload(ctx context.Context, w workload, seq *sequence, all *tally) (*replayResult, error) {
	end := w.warmup + replayTraced
	keys := make([]int, end)
	for i := range keys {
		var err error
		if keys[i], err = seq.key(i); err != nil {
			return nil, err
		}
	}
	seq.goldensFor(keys)

	res := &replayResult{metrics: map[string]float64{}, facade: map[int]time.Duration{}}
	t := newTracer()
	sf := predint.Surfaced{Cache: surface.New(surface.Options{})}
	// The untraced calls run interleaved with the traced ones, against a
	// cache of their own that goes through the same states, so that
	// both see the host at the same speed.
	base := predint.Surfaced{Cache: surface.New(surface.Options{})}
	var baseTime time.Duration
	resized := 0
	for i := 0; i < end; i++ {
		sp := seq.spec(keys[i])
		if i < w.warmup+replayUntraced {
			start := time.Now()
			if err := untraced(ctx, sp, base); err != nil {
				return nil, fmt.Errorf("untraced replay of request %d: %w", keys[i], err)
			}
			if i >= w.warmup {
				baseTime += time.Since(start)
			}
		}
		got, err := replay(ctx, t, i, sp, sf)
		if err == nil {
			err = sameAnswer(sp, got, seq.golden(keys[i]))
		}
		if err != nil {
			all.fail(1, "replay of request %d: %v", keys[i], err)
		}
		if got.single.Resized {
			resized++
		}
	}
	res.spans = t.spans
	res.resized = float64(resized) / float64(end)

	// Stage spans have no children of their own, so a stage's self time
	// is its duration.
	roots := map[int]span{} // sequence index → root span
	self := map[string]time.Duration{}
	for _, s := range t.spans {
		if s.Req < w.warmup {
			continue
		}
		if s.Parent == 0 {
			roots[s.Req] = s
		} else {
			self[s.Name] += time.Duration(s.End - s.Start)
		}
	}
	var total, traced time.Duration
	var facade []float64
	for idx, r := range roots {
		d := time.Duration(r.End - r.Start)
		total += d
		if idx < w.warmup+replayUntraced {
			traced += d
		}
		facade = append(facade, float64(d)/1e3)
		res.facade[idx] = d
	}
	sort.Float64s(facade)
	res.metrics["trace.overhead_frac"] = float64(traced)/float64(baseTime) - 1
	res.metrics["trace.facade_us_p50"] = percentile(facade, 0.5)
	for _, st := range stages {
		res.metrics["trace."+st+"_share"] = float64(self[st]) / float64(total)
	}
	return res, nil
}

// shardSplit sends each request's shards to worker itself — encode,
// POST /v1/internal/shard, decode — then merges them, and checks the
// merged answer against coordinator.Estimate over the same worker and
// against the single-process facade. Shards go one at a time, as they
// do from a coordinator with one worker, so the split's sum is
// comparable with that Estimate's wall time. rpc is the round trip less
// the time the same shard takes to collect in-process. A mismatch
// counts in all as failed.
func shardSplit(ctx context.Context, worker string, reqs []predint.YieldRequest, all *tally) (metrics, checks map[string]float64, err error) {
	coord, err := coordinator.New(coordinator.Config{Workers: []string{worker}, ShardSamples: shardSamples})
	if err != nil {
		return nil, nil, err
	}
	defer coord.Close()
	hc := &http.Client{Timeout: time.Minute}
	url := "http://" + worker + "/v1/internal/shard"

	var encode, rpc, decode, collect, merge []float64
	var split, estimate, direct time.Duration
	bytesSent, shards := 0, 0
	for _, req := range reqs {
		start := time.Now()
		plan, err := predint.YieldShardPlanFor(req)
		if err != nil {
			return nil, nil, err
		}
		var enc, trip, dec, col time.Duration
		var parts []variation.Partial
		shifted := false
		for lo := 0; lo < plan.Samples(); lo += shardSamples {
			n := min(shardSamples, plan.Samples()-lo)
			t0 := time.Now()
			raw, err := json.Marshal(coordinator.ShardRequest{Op: coordinator.OpSample, Req: req, Start: lo, Count: n})
			if err != nil {
				return nil, nil, err
			}
			t1 := time.Now()
			body, err := post(ctx, hc, url, raw)
			if err != nil {
				return nil, nil, err
			}
			t2 := time.Now()
			var resp coordinator.ShardResponse
			if err := json.Unmarshal(body, &resp); err != nil {
				return nil, nil, fmt.Errorf("decode shard answer: %w", err)
			}
			t3 := time.Now()
			if resp.Part == nil || resp.Kind != plan.Kind() {
				return nil, nil, fmt.Errorf("shard [%d,%d) answered kind %q with part %v", lo, lo+n, resp.Kind, resp.Part != nil)
			}
			enc, trip, dec = enc+t1.Sub(t0), trip+t2.Sub(t1), dec+t3.Sub(t2)
			parts, shifted = append(parts, *resp.Part), resp.Shifted
			bytesSent += len(raw) + len(body)
			shards++
		}
		t4 := time.Now()
		est, _, err := plan.Merge(parts, shifted)
		if err != nil {
			return nil, nil, err
		}
		got := plan.Result(est)
		t5 := time.Now()
		split += t5.Sub(start)

		for lo := 0; lo < plan.Samples(); lo += shardSamples {
			t := time.Now()
			if _, _, err := plan.CollectCtx(ctx, lo, min(shardSamples, plan.Samples()-lo)); err != nil {
				return nil, nil, err
			}
			col += time.Since(t)
		}

		t6 := time.Now()
		viaCoord, err := coord.Estimate(ctx, req)
		if err != nil {
			return nil, nil, fmt.Errorf("coordinator.Estimate: %w", err)
		}
		t7 := time.Now()
		local, err := predint.Surfaced{}.LinkYieldCtx(ctx, req)
		if err != nil {
			return nil, nil, err
		}
		direct += time.Since(t7)
		estimate += t7.Sub(t6)
		if got != viaCoord {
			all.fail(1, "shard split differs from coordinator.Estimate: %+v != %+v", got, viaCoord)
		} else if err := sameResult(dtoOf(got), local); err != nil {
			all.fail(1, "shard split: %v", err)
		}

		us := func(d time.Duration) float64 { return float64(d) / 1e3 }
		encode = append(encode, us(enc))
		rpc = append(rpc, us(trip-col))
		decode = append(decode, us(dec))
		collect = append(collect, us(col))
		merge = append(merge, us(t5.Sub(t4)))
	}
	metrics = map[string]float64{
		"coordinator.encode_us":       median(encode),
		"coordinator.rpc_us":          median(rpc),
		"coordinator.decode_us":       median(decode),
		"coordinator.collect_us":      median(collect),
		"coordinator.merge_us":        median(merge),
		"coordinator.bytes_per_shard": float64(bytesSent) / float64(shards),
		"coordinator.overhead_x":      float64(estimate) / float64(direct),
	}
	checks = map[string]float64{"coordinator.reconcile_ratio": float64(split) / float64(estimate)}
	return metrics, checks, nil
}

func post(ctx context.Context, hc *http.Client, url string, raw []byte) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(raw))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: status %d: %.200s", url, resp.StatusCode, body)
	}
	return body, nil
}
