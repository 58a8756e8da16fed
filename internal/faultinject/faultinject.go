// Package faultinject is a deterministic, seedable fault-point
// registry for robustness testing: hot paths declare named points
// (noc.cache.compute, pool.item, variation.batch,
// liberty.characterize, predintd.handle, ...) and tests activate a
// Plan that makes chosen points fail — with an error, a panic, a
// delay, or a synthetic cancellation — on a deterministic schedule. This is how the serving layer's
// shedding, degradation, retry, and drain paths are *proved* to fire
// rather than assumed.
//
// Production cost: with no plan active, Hit is one atomic pointer
// load and a nil check (sub-nanosecond next to the evaluations the
// instrumented seams perform). Builds with the `prod` tag compile the
// registry out entirely — Hit becomes a constant no-op the inliner
// erases (see disabled.go) — so a production binary cannot be made to
// inject faults at all.
//
// Determinism: a point's firing schedule depends only on the Plan
// (Seed, the point's config) and the point's hit index, never on
// scheduling. Counters are per-activation, so a test's restore func
// returns the registry to its prior state.
package faultinject

import (
	"errors"
	"time"
)

// ErrInjected is the sentinel every injected error wraps.
var ErrInjected = errors.New("faultinject: injected fault")

// Kind selects what a firing fault point does.
type Kind int

const (
	// Error returns an injected error (wraps ErrInjected).
	Error Kind = iota
	// Panic panics with a descriptive string value.
	Panic
	// Delay sleeps for Point.Delay, then lets the call proceed.
	Delay
	// Cancel returns context.Canceled, emulating a cancellation
	// surfacing from the instrumented seam.
	Cancel
)

// Point configures one fault point inside a Plan. The first After
// hits never fire; the remaining schedule is resolved per (shifted)
// hit index, in priority order:
//
//   - Times > 0: fire on the first Times eligible hits only.
//   - Every > 0: fire on eligible hits 0, Every, 2·Every, ...
//   - Prob > 0: fire when the deterministic per-hit hash (keyed by the
//     plan seed, the point name, and the hit index) falls below Prob.
//   - otherwise: fire on every eligible hit.
type Point struct {
	Kind Kind
	// After skips the first After hits entirely, letting a fault fire
	// mid-run rather than on first contact.
	After int
	Times int
	Every int
	Prob  float64
	// Delay is the sleep for Kind Delay.
	Delay time.Duration
}

// Plan is one activation's worth of fault points. Activate copies the
// Points map; mutating the original after activation has no effect.
type Plan struct {
	// Seed keys the Prob schedule's per-hit hash.
	Seed uint64
	// Points maps point names to their configuration.
	Points map[string]Point
}

// Uniform is the deterministic per-hit hash behind Prob schedules,
// exported so tests can predict exactly which hits fire: a
// splitmix64-style mix of (seed, fnv1a(name), hit index) mapped to
// [0, 1). It is pure arithmetic and present in every build.
func Uniform(seed uint64, name string, i uint64) float64 {
	const fnvOffset = 14695981039346656037
	const fnvPrime = 1099511628211
	h := uint64(fnvOffset)
	for j := 0; j < len(name); j++ {
		h ^= uint64(name[j])
		h *= fnvPrime
	}
	x := seed ^ h ^ (i * 0x9e3779b97f4a7c15)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return float64(x>>11) / float64(1<<53)
}
