// Package surface is the yield-response-surface cache behind the
// warm-start serving path: a concurrency-safe memo of
// completed Monte Carlo yield estimates, organized so that repeated
// production traffic — the same technology node, the same link
// geometry, nearby clock targets — stops costing samples at all.
//
// The cache exploits the smoothness the importance-sampling literature
// leans on (yield varies smoothly in sizing and clock target): each
// completed estimation contributes one point (target → fail prob,
// stderr) to the curve of its (repeater size, count) on the surface of
// its link class, and a later query at a nearby target is answered by
// local interpolation between its bracketing points. Because the true
// fail-probability curve is monotone non-increasing in the target, the
// interpolation error is bounded by the bracketing gap |p0 − p1|; the
// cache folds that bound into the answer's reported standard error, so
// a warm answer always carries a conservative confidence band, and is
// only served when that band meets the caller's tolerance. Anything
// else is a miss, and the caller falls back to (and refreshes the
// surface from) the full Monte Carlo kernel.
//
// A key is the link class and sigma scale by value: a built-in
// technology's name, the style, length, input slew and power weight, and
// the sigma scale of the default variation space. Nothing invalidates an
// entry: the technology set and the models are fixed for the life of the
// process, so a name stands for one descriptor and a recorded point
// stays valid.
package surface

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/estimator"
	"repro/internal/obs"
	"repro/internal/wire"
)

// Cache-wide observability: warm answers served, queries that fell
// through to the kernel, and points memoized.
var (
	metHits    = obs.NewCounter("surface.hits")
	metMisses  = obs.NewCounter("surface.misses")
	metRecords = obs.NewCounter("surface.records")
	// metCrossEstimator counts interpolations refused because the
	// bracketing points came from different estimators — numbers two
	// rungs of the ladder produced are not one smooth curve, and
	// blending them would hide an estimator-disagreement signal.
	metCrossEstimator = obs.NewCounter("surface.cross_estimator_refusals")
)

// Key identifies one response surface: a class of yield queries whose
// estimates are mutually interpolable. Everything that changes the
// estimated quantity is part of the key — the technology, the link's
// style and length (which fix its routed segment), the input slew and
// power weight that shape the designed buffering, and the sigma scale of
// the variation space. Fields compare as floats, so −0 and +0 are one
// key.
type Key struct {
	// Tech is the built-in technology's name.
	Tech string
	// Style is the wire design style.
	Style wire.Style
	// Length is the routed link length in meters.
	Length float64
	// InputSlew is the line input slew in seconds.
	InputSlew float64
	// PowerWeight is the buffering objective's power weight.
	PowerWeight float64
	// SigmaScale multiplies every sigma of the default variation space.
	SigmaScale float64
}

// DesignKey identifies one buffering solution's curve on a surface.
type DesignKey struct {
	// Size is the repeater drive strength in unit-inverter multiples.
	Size float64
	// N is the repeater count.
	N int
}

// Sample is one memoized Monte Carlo estimate: the fail probability
// and its standard error at one delay target.
type Sample struct {
	// Target is the delay constraint in seconds.
	Target float64
	// FailProb and StdErr are the completed run's estimate.
	FailProb, StdErr float64
	// Samples is the Monte Carlo sample count behind the estimate.
	Samples int
	// Shifted records whether the estimate was importance sampled.
	Shifted bool
	// Estimator names the ladder rung that produced the point. Record
	// refuses an empty (Auto) value, so stored points always carry a
	// concrete rung and Lookup can refuse to interpolate across rungs.
	Estimator estimator.Kind
}

// Design memoizes the nominal weighted-objective buffering solution of
// a link class, so a warm query can be answered without re-running the
// candidate sweep.
type Design struct {
	Size  float64
	N     int
	Delay float64 // nominal delay (s)
}

// Tolerance is the caller's accuracy demand on a warm answer, mirroring
// the estimator's stopping-rule semantics: AbsErr bounds the answer's
// conservative standard error directly, RelErr bounds it relative to
// the interpolated fail probability. Either rule accepting serves the
// answer. A zero Tolerance falls back to the cache's conservative
// defaults (AbsErr 0.005, RelErr 0.05).
type Tolerance struct {
	RelErr, AbsErr float64
	// MinSamples, when positive, additionally accepts an exact-target
	// hit whose stored sample count reaches it even when the stored
	// band is wider than the tolerance: a memoized run that already
	// spent the query's full sample budget cannot be improved by
	// rerunning it, so refusing the recall would only repay the
	// Monte Carlo cost for the same estimate. Interpolated answers
	// are never admitted this way — their band must meet the
	// tolerance on its own.
	MinSamples int
	// Estimator, when not Auto, restricts the answer to points that
	// rung produced: a query that pinned an estimator must not be
	// served numbers from a different one.
	Estimator estimator.Kind
}

// Estimate is a warm answer: an interpolated fail probability with a
// conservative uncertainty that folds the bracketing gap into the
// standard error.
type Estimate struct {
	// FailProb is the interpolated fail probability.
	FailProb float64
	// StdErr is the conservative standard error: the larger bracketing
	// stderr plus the full bracketing gap |p0 − p1| (the monotone
	// interpolation error bound). For an exact-target hit it is the
	// stored stderr.
	StdErr float64
	// Samples is the memoized sample count backing the answer (the
	// smaller of the two bracketing counts when interpolated).
	Samples int
	// Shifted reports the stored estimator for exact hits; it is
	// false for interpolated answers (the interpolation, not one
	// estimator run, produced the number).
	Shifted bool
	// Interpolated distinguishes a between-points answer from an
	// exact-target hit.
	Interpolated bool
	// Estimator is the rung behind the answer (both bracketing points'
	// rung when interpolated — cross-rung interpolation is refused).
	Estimator estimator.Kind
}

// Options configures a Cache. It has no settings: every cache runs
// under the bounds and default tolerance below.
type Options struct{}

const (
	// maxEntries caps the number of link classes (keys); inserts
	// beyond it are dropped (never evicted mid-flight, so a warm
	// entry can't vanish under a reader).
	maxEntries = 4096
	// maxPointsPerCurve caps each (size, count) curve; a record into
	// a full curve replaces the nearest-by-target point, keeping the
	// curve's coverage spread.
	maxPointsPerCurve = 128
	// defaultAbsErr and defaultRelErr are the tolerance applied when a
	// lookup passes a zero Tolerance: conservative bounds chosen so a
	// default warm answer is at least as tight as a default-budget
	// (4096-sample) Monte Carlo run's worst-case standard error.
	defaultAbsErr = 0.005
	defaultRelErr = 0.05
)

// Stats is a point-in-time view of one cache's counters.
type Stats struct {
	Entries, Points       int
	Hits, Misses, Records int64
}

// entry is one link class's surface: the memoized nominal design and
// one curve per evaluated (size, count).
type entry struct {
	mu     sync.Mutex
	design *Design
	curves map[DesignKey][]Sample // each sorted by Target, targets unique
}

// Cache is a concurrency-safe yield-response-surface cache. The zero
// value is not usable; construct with New.
type Cache struct {
	mu      sync.RWMutex
	entries map[Key]*entry

	hits, misses, records atomic.Int64
}

// New builds an empty cache.
func New(Options) *Cache {
	return &Cache{entries: map[Key]*entry{}}
}

// Stats snapshots the cache counters.
func (c *Cache) Stats() Stats {
	c.mu.RLock()
	entries := len(c.entries)
	points := 0
	for _, e := range c.entries {
		e.mu.Lock()
		for _, curve := range e.curves {
			points += len(curve)
		}
		e.mu.Unlock()
	}
	c.mu.RUnlock()
	return Stats{
		Entries: entries, Points: points,
		Hits: c.hits.Load(), Misses: c.misses.Load(),
		Records: c.records.Load(),
	}
}

// lookupEntry returns the key's entry, or nil without creating one.
func (c *Cache) lookupEntry(k Key) *entry {
	c.mu.RLock()
	e := c.entries[k]
	c.mu.RUnlock()
	return e
}

// ensureEntry returns the key's entry, creating it if the cap allows;
// nil when the cache is full and the key is new.
func (c *Cache) ensureEntry(k Key) *entry {
	if e := c.lookupEntry(k); e != nil {
		return e
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if e := c.entries[k]; e != nil {
		return e
	}
	if len(c.entries) >= maxEntries {
		return nil
	}
	e := &entry{curves: map[DesignKey][]Sample{}}
	c.entries[k] = e
	return e
}

// RecordDesign memoizes the nominal weighted-objective design of a
// link class, replacing any previous memo.
func (c *Cache) RecordDesign(k Key, d Design) {
	e := c.ensureEntry(k)
	if e == nil {
		return
	}
	e.mu.Lock()
	e.design = &d
	e.mu.Unlock()
}

// DesignFor returns the memoized nominal design of a link class. A
// class with no design memo counts as a miss: the probe asking for it
// falls through to the kernel without reaching Lookup.
func (c *Cache) DesignFor(k Key) (Design, bool) {
	if e := c.lookupEntry(k); e != nil {
		e.mu.Lock()
		defer e.mu.Unlock()
		if e.design != nil {
			return *e.design, true
		}
	}
	c.miss()
	return Design{}, false
}

// Record memoizes one completed estimate on the curve of (k, dk).
// A sample at an already-stored target replaces the stored point when
// it carries at least as many Monte Carlo samples (fresher, tighter
// data wins; a cheap probe never overwrites an expensive run). On a
// full curve the nearest-by-target point is replaced. Samples with a
// non-finite or non-positive target, or non-finite estimate fields,
// are ignored, and so are samples that name no estimator rung.
func (c *Cache) Record(k Key, dk DesignKey, s Sample) {
	if !(s.Target > 0) || math.IsInf(s.Target, 0) ||
		math.IsNaN(s.FailProb) || math.IsNaN(s.StdErr) || math.IsInf(s.StdErr, 0) || s.Samples <= 0 ||
		s.Estimator == estimator.Auto {
		return
	}
	e := c.ensureEntry(k)
	if e == nil {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	curve := e.curves[dk]
	i := sort.Search(len(curve), func(i int) bool { return curve[i].Target >= s.Target })
	switch {
	case i < len(curve) && curve[i].Target == s.Target:
		if s.Samples >= curve[i].Samples {
			curve[i] = s
		} else {
			return
		}
	case len(curve) >= maxPointsPerCurve:
		// Full: replace the nearest point so coverage keeps its spread.
		j := i
		if j == len(curve) || (i > 0 && s.Target-curve[i-1].Target <= curve[i].Target-s.Target) {
			j = i - 1
		}
		curve[j] = s
		sort.Slice(curve, func(a, b int) bool { return curve[a].Target < curve[b].Target })
	default:
		curve = append(curve, Sample{})
		copy(curve[i+1:], curve[i:])
		curve[i] = s
		e.curves[dk] = curve
	}
	c.records.Add(1)
	metRecords.Inc()
}

// accepted applies the tolerance (or the cache defaults) to a
// candidate answer.
func (c *Cache) accepted(tol Tolerance, p, se float64) bool {
	if tol.AbsErr == 0 && tol.RelErr == 0 {
		tol = Tolerance{AbsErr: defaultAbsErr, RelErr: defaultRelErr}
	}
	if tol.AbsErr > 0 && se <= tol.AbsErr {
		return true
	}
	if tol.RelErr > 0 && p > 0 && se <= tol.RelErr*p {
		return true
	}
	return false
}

// Lookup answers a yield query from the surface when it can do so
// within the tolerance: an exact-target hit returns the memoized
// estimate (also served, regardless of band, when the stored run
// already spent tol.MinSamples — see Tolerance), a target strictly
// inside a bracketing pair returns the linear interpolation with the
// conservative band (stderr plus the full bracketing gap). Queries
// outside the curve's target range, on unknown curves, or whose
// conservative band exceeds the tolerance miss.
func (c *Cache) Lookup(k Key, dk DesignKey, target float64, tol Tolerance) (Estimate, bool) {
	e := c.lookupEntry(k)
	if e == nil {
		return c.miss()
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	curve := e.curves[dk]
	if len(curve) == 0 {
		return c.miss()
	}
	i := sort.Search(len(curve), func(i int) bool { return curve[i].Target >= target })
	if i < len(curve) && curve[i].Target == target {
		s := curve[i]
		if tol.Estimator != estimator.Auto && s.Estimator != tol.Estimator {
			return c.miss()
		}
		budgetSpent := tol.MinSamples > 0 && s.Samples >= tol.MinSamples
		if !budgetSpent && !c.accepted(tol, s.FailProb, s.StdErr) {
			return c.miss()
		}
		return c.hit(Estimate{FailProb: s.FailProb, StdErr: s.StdErr, Samples: s.Samples, Shifted: s.Shifted, Estimator: s.Estimator})
	}
	if i == 0 || i == len(curve) {
		// Outside the evaluated range: extrapolation has no error
		// bound, so it is never served.
		return c.miss()
	}
	s0, s1 := curve[i-1], curve[i]
	if s0.Estimator != s1.Estimator {
		metCrossEstimator.Inc()
		return c.miss()
	}
	if tol.Estimator != estimator.Auto && s0.Estimator != tol.Estimator {
		return c.miss()
	}
	u := (target - s0.Target) / (s1.Target - s0.Target)
	p := s0.FailProb + u*(s1.FailProb-s0.FailProb)
	se := math.Max(s0.StdErr, s1.StdErr) + math.Abs(s1.FailProb-s0.FailProb)
	if !c.accepted(tol, p, se) {
		return c.miss()
	}
	n := s0.Samples
	if s1.Samples < n {
		n = s1.Samples
	}
	return c.hit(Estimate{FailProb: p, StdErr: se, Samples: n, Interpolated: true, Estimator: s0.Estimator})
}

func (c *Cache) hit(e Estimate) (Estimate, bool) {
	c.hits.Add(1)
	metHits.Inc()
	return e, true
}

func (c *Cache) miss() (Estimate, bool) {
	c.misses.Add(1)
	metMisses.Inc()
	return Estimate{}, false
}
