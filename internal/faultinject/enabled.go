//go:build !prod

package faultinject

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"
)

// state is one activation: an immutable plan plus per-point hit
// counters. It is published through an atomic pointer so Hit on the
// hot path is a single load with no locks.
type state struct {
	plan Plan
	hits map[string]*atomic.Uint64
}

var active atomic.Pointer[state]

// Activate installs a plan and returns a restore func that reinstates
// whatever was active before (normally nothing). Tests use
//
//	defer faultinject.Activate(plan)()
//
// Concurrent activations are last-writer-wins; tests within one
// package serialize naturally. The plan's Points map is copied.
func Activate(p Plan) (restore func()) {
	s := &state{plan: Plan{Seed: p.Seed, Points: make(map[string]Point, len(p.Points))}}
	s.hits = make(map[string]*atomic.Uint64, len(p.Points))
	for name, pt := range p.Points {
		s.plan.Points[name] = pt
		s.hits[name] = &atomic.Uint64{}
	}
	prev := active.Swap(s)
	return func() { active.Store(prev) }
}

// Enabled reports whether a plan is currently active.
func Enabled() bool { return active.Load() != nil }

// Hits returns how many times the named point was reached under the
// current activation (fired or not); 0 when inactive or unconfigured.
func Hits(name string) uint64 {
	s := active.Load()
	if s == nil {
		return 0
	}
	c, ok := s.hits[name]
	if !ok {
		return 0
	}
	return c.Load()
}

// Hit is the instrumentation call sites place at a fault point. With
// no active plan, or no configuration for this point, it returns nil
// immediately. A firing Error/Cancel point returns the
// corresponding error; a Delay point sleeps then returns nil; a Panic
// point panics.
func Hit(name string) error {
	s := active.Load()
	if s == nil {
		return nil
	}
	pt, ok := s.plan.Points[name]
	if !ok {
		return nil
	}
	i := s.hits[name].Add(1) - 1
	if !fires(s.plan.Seed, name, pt, i) {
		return nil
	}
	switch pt.Kind {
	case Error:
		return fmt.Errorf("%s (hit %d): %w", name, i, ErrInjected)
	case Panic:
		panic(fmt.Sprintf("faultinject: panic at %s (hit %d)", name, i))
	case Delay:
		time.Sleep(pt.Delay)
		return nil
	case Cancel:
		return fmt.Errorf("%s (hit %d): %w", name, i, context.Canceled)
	default:
		return fmt.Errorf("%s (hit %d): unknown kind %d: %w", name, i, pt.Kind, ErrInjected)
	}
}

// fires resolves the deterministic per-hit schedule.
func fires(seed uint64, name string, pt Point, i uint64) bool {
	if pt.After > 0 {
		if i < uint64(pt.After) {
			return false
		}
		i -= uint64(pt.After)
	}
	switch {
	case pt.Times > 0:
		return i < uint64(pt.Times)
	case pt.Every > 0:
		return i%uint64(pt.Every) == 0
	case pt.Prob > 0:
		return Uniform(seed, name, i) < pt.Prob
	default:
		return true
	}
}
