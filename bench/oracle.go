package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	predint "repro"
)

// golden is the answer to one request through the in-process facade
// with the surface off: what the daemon must return, bit for bit.
type golden struct {
	single predint.YieldResult
	batch  predint.YieldBatchResult
	err    error
}

func computeGolden(sp *spec) *golden {
	ctx := context.Background()
	var g golden
	if sp.batch() {
		g.batch, g.err = predint.Surfaced{}.LinkYieldBatchCtx(ctx, sp.body.batchRequest())
	} else {
		g.single, g.err = predint.Surfaced{}.LinkYieldCtx(ctx, sp.body.yieldRequest())
	}
	return &g
}

// goldensFor computes the goldens of keys not yet known.
func (s *sequence) goldensFor(keys []int) {
	s.mu.Lock()
	var todo []int
	for _, k := range keys {
		if s.goldens[k] == nil {
			todo = append(todo, k)
		}
	}
	specs := make([]*spec, len(todo))
	for i, k := range todo {
		specs[i] = s.specs[k]
	}
	s.mu.Unlock()
	out := make([]*golden, len(todo))
	parallel(len(todo), func(i int) { out[i] = computeGolden(specs[i]) })
	s.mu.Lock()
	for i, k := range todo {
		s.goldens[k] = out[i]
	}
	s.mu.Unlock()
}

func (s *sequence) golden(key int) *golden {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.goldens[key]
}

// parallel calls fn for 0..n-1 on GOMAXPROCS goroutines and returns
// once every call has.
func parallel(n int, fn func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// resultDTO and batchDTO mirror predintd's response documents.
type resultDTO struct {
	Repeaters         int     `json:"repeaters"`
	RepeaterSize      float64 `json:"repeater_size"`
	NominalDelayS     float64 `json:"nominal_delay_s"`
	TargetS           float64 `json:"target_s"`
	Yield             float64 `json:"yield"`
	FailProb          float64 `json:"fail_prob"`
	StdErr            float64 `json:"std_err"`
	CI95              float64 `json:"ci95"`
	Samples           int     `json:"samples"`
	ImportanceSampled bool    `json:"importance_sampled,omitempty"`
	Estimator         string  `json:"estimator,omitempty"`
	VarianceReduction float64 `json:"variance_reduction,omitempty"`
	Resized           bool    `json:"resized,omitempty"`
	Degraded          bool    `json:"degraded,omitempty"`
	FailProbBound     float64 `json:"fail_prob_bound,omitempty"`
	Source            string  `json:"source"`
}

type batchDTO struct {
	TargetS float64     `json:"target_s"`
	Results []resultDTO `json:"results"`
}

func dtoOf(r predint.YieldResult) resultDTO {
	return resultDTO{
		Repeaters:         r.Repeaters,
		RepeaterSize:      r.RepeaterSize,
		NominalDelayS:     r.NominalDelay,
		TargetS:           r.Target,
		Yield:             r.Yield,
		FailProb:          r.FailProb,
		StdErr:            r.StdErr,
		CI95:              r.CI95,
		Samples:           r.Samples,
		ImportanceSampled: r.ImportanceSampled,
		Estimator:         r.Estimator,
		VarianceReduction: r.VarianceReduction,
		Resized:           r.Resized,
		Degraded:          r.Degraded,
		FailProbBound:     r.FailProbBound,
		Source:            r.Source,
	}
}

// check compares one 200 body with the golden answer of its request.
func check(sp *spec, g *golden, raw []byte) error {
	if g.err != nil {
		return fmt.Errorf("the in-process facade rejects the request: %v", g.err)
	}
	if !sp.batch() {
		var got resultDTO
		if err := json.Unmarshal(raw, &got); err != nil {
			return fmt.Errorf("decode answer: %w", err)
		}
		return sameResult(got, g.single)
	}
	var got batchDTO
	if err := json.Unmarshal(raw, &got); err != nil {
		return fmt.Errorf("decode answer: %w", err)
	}
	if math.Float64bits(got.TargetS) != math.Float64bits(g.batch.Target) || len(got.Results) != len(g.batch.Results) {
		return fmt.Errorf("batch answer: target %g with %d results, want %g with %d",
			got.TargetS, len(got.Results), g.batch.Target, len(g.batch.Results))
	}
	for i := range got.Results {
		if err := sameResult(got.Results[i], g.batch.Results[i]); err != nil {
			return fmt.Errorf("candidate %d: %w", i, err)
		}
	}
	return nil
}

// sameResult reports whether an answer equals the golden bit for bit.
// Source names the tier that answered and is not compared; the surface
// tier does not carry variance_reduction, so that field is compared on
// sampled answers only. A degraded answer is a failure even when its
// fields happen to match.
func sameResult(got resultDTO, want predint.YieldResult) error {
	if got.Degraded {
		return errors.New("degraded answer")
	}
	exp := dtoOf(want)
	exp.Source = got.Source
	if got.Source == predint.SourceSurface {
		exp.VarianceReduction = got.VarianceReduction
	}
	a, err := json.Marshal(got)
	if err != nil {
		return err
	}
	b, err := json.Marshal(exp)
	if err != nil {
		return err
	}
	if !bytes.Equal(a, b) {
		return fmt.Errorf("answer differs from the in-process golden:\n got  %s\n want %s", a, b)
	}
	return nil
}
