package predint

import (
	"context"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/buffering"
	"repro/internal/obs"
	"repro/internal/variation"
	"repro/internal/wire"
)

// This file is a replica's plan memo: the one place a serving replica
// designs a link. A class entry holds what depends on the link class
// alone — the nominal buffering design and, once a sizing query has
// needed it, the candidates a sizing walk can reach — and a shard entry
// binds a class's design to one delay target and variation space for
// the sample-index shard route (shard.go). A memo only skips work: every
// answer through it is bit-identical to the uncached path's.

// Capacities of a PlanMemo's two maps. A shard entry (key, design,
// scenario and ISLE shift) is under a kilobyte, so the shard map holds
// at most ~1 MB. A class entry is its 48-byte key, its 56-byte nominal
// design and, once sized, 56 bytes per reachable candidate: at most the
// whole 832-cell grid, ~47 KB, so the class map holds at most ~12 MB.
// Across 1 008 classes (six technologies, three styles, power weights
// 0–0.99, 0.5–20 mm) 49–418 candidates were reachable, median 97 (~5.5
// KB an entry), and bench's mixes use at most 72 (class, target) pairs
// and 48 classes.
const (
	shardPlansCap = 1024
	classPlansCap = 256
)

var (
	metPlanHits       = obs.NewCounter("predint.plan_memo.hits")
	metPlanMisses     = obs.NewCounter("predint.plan_memo.misses")
	metPlanClassHits  = obs.NewCounter("predint.plan_memo.class_hits")
	metPlanClassMiss  = obs.NewCounter("predint.plan_memo.class_misses")
	metPlanGridHits   = obs.NewCounter("predint.plan_memo.grid_hits")
	metPlanGridMisses = obs.NewCounter("predint.plan_memo.grid_misses")
)

// PlanMemo is a replica's bounded memo of link designs. Its class
// entries, keyed by (technology, style, length, power weight, input
// slew), hold the nominal buffering design and, after the class's first
// sizing query whose nominal design misses, the class's
// variation.SizingGrid. Its shard entries, keyed by the class plus the
// delay target and sigma scale, bind the class's design to a scenario
// and an ISLE shift memo for the shard route (Plan). Everything else a
// request sets — seed, samples, workers, stopping tolerances, rung,
// yield target — applies afresh on every call, so answers are
// bit-identical to the uncached path's. A full map evicts an arbitrary
// entry. Safe for concurrent use; each serving replica owns one.
type PlanMemo struct {
	shards  boundedMemo[planKey, shardDesign]
	classes boundedMemo[classKey, classEntry]

	gridHits, gridMisses atomic.Int64
}

// NewPlanMemo builds an empty memo.
func NewPlanMemo() *PlanMemo {
	return &PlanMemo{
		shards:  boundedMemo[planKey, shardDesign]{limit: shardPlansCap, metHits: metPlanHits, metMisses: metPlanMisses},
		classes: boundedMemo[classKey, classEntry]{limit: classPlansCap, metHits: metPlanClassHits, metMisses: metPlanClassMiss},
	}
}

// Stats reports how many shard plans the memo served from a stored
// design (hits) and how many built one (misses).
func (m *PlanMemo) Stats() (hits, misses int64) {
	return m.shards.hits.Load(), m.shards.misses.Load()
}

// classKey identifies a link class: every validated input of the
// buffering search, and nothing else. Floats are keyed by their bits,
// so −0 and +0 never share an entry. The technology name stands for its
// descriptor and coefficients, which are built in and fixed for the
// life of the process.
type classKey struct {
	tech                 string
	style                wire.Style
	length, weight, slew uint64
}

// planKey identifies a shardDesign: the link class plus the delay
// target and sigma scale its scenario and ISLE shift depend on.
type planKey struct {
	class         classKey
	target, sigma uint64
}

func (c *linkClass) classKey() classKey {
	return classKey{
		tech:   c.tc.Name,
		style:  c.seg.Style,
		length: math.Float64bits(c.seg.Length),
		weight: math.Float64bits(c.weight),
		slew:   math.Float64bits(c.slew),
	}
}

func (p *yieldPlan) planKey() planKey {
	return planKey{class: p.classKey(), target: math.Float64bits(p.target), sigma: math.Float64bits(p.sigma)}
}

// classEntry is what a replica keeps of one link class: the nominal
// design and, filled at most once, the sizing grid.
type classEntry struct {
	nominal buffering.Design
	grid    atomic.Pointer[variation.SizingGrid]
}

// nominal returns the plan's nominal weighted-objective design: the
// class entry's, or with no memo a fresh buffering search.
func (m *PlanMemo) nominal(p *yieldPlan) (buffering.Design, error) {
	if m == nil {
		return buffering.Optimize(p.seg, p.bufOpts)
	}
	e, err := m.class(p)
	if err != nil {
		return buffering.Design{}, err
	}
	return e.nominal, nil
}

// class returns the plan's class entry, designing the link on a miss.
func (m *PlanMemo) class(p *yieldPlan) (*classEntry, error) {
	return m.classes.get(p.classKey(), func() (*classEntry, error) {
		des, err := buffering.Optimize(p.seg, p.bufOpts)
		if err != nil {
			return nil, err
		}
		return &classEntry{nominal: des}, nil
	})
}

// sizingGrid returns the class entry's sizing grid, building it on
// first use. Concurrent first uses may each build; the first stored
// grid wins, and the grids are identical anyway.
func (m *PlanMemo) sizingGrid(p *yieldPlan, e *classEntry) (*variation.SizingGrid, error) {
	if g := e.grid.Load(); g != nil {
		m.gridHits.Add(1)
		metPlanGridHits.Inc()
		return g, nil
	}
	m.gridMisses.Add(1)
	metPlanGridMisses.Inc()
	g, err := variation.NewSizingGrid(p.seg, p.bufOpts)
	if err != nil {
		return nil, err
	}
	if !e.grid.CompareAndSwap(nil, g) {
		g = e.grid.Load()
	}
	return g, nil
}

// size runs the plan's sizing search: on the class entry's nominal
// design and sizing grid, or with no memo the one-shot search.
func (m *PlanMemo) size(ctx context.Context, p *yieldPlan) (variation.SizedDesign, error) {
	o := variation.SizingOptions{
		Buffering:   p.bufOpts,
		Space:       p.space,
		Target:      p.target,
		YieldTarget: *p.yt,
		MC:          p.mc,
	}
	if m == nil {
		return variation.SizeForYieldCtx(ctx, p.tc, p.seg, o)
	}
	e, err := m.class(p)
	if err != nil {
		return variation.SizedDesign{}, err
	}
	return variation.SizeClassForYieldCtx(ctx, p.tc, p.seg, o, e.nominal, func() (*variation.SizingGrid, error) {
		return m.sizingGrid(p, e)
	})
}

// boundedMemo is one of a PlanMemo's maps. A miss builds without
// holding the lock, so concurrent misses on one key may each build; the
// first to store wins. A failed build stores nothing. When full it
// evicts an arbitrary entry.
type boundedMemo[K comparable, V any] struct {
	mu      sync.Mutex
	entries map[K]*V
	limit   int

	hits, misses       atomic.Int64
	metHits, metMisses *obs.Counter
}

func (b *boundedMemo[K, V]) get(k K, build func() (*V, error)) (*V, error) {
	b.mu.Lock()
	v := b.entries[k]
	b.mu.Unlock()
	if v != nil {
		b.hits.Add(1)
		b.metHits.Inc()
		return v, nil
	}
	b.misses.Add(1)
	b.metMisses.Inc()
	v, err := build()
	if err != nil {
		return nil, err
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if prev := b.entries[k]; prev != nil {
		return prev, nil
	}
	if b.entries == nil {
		b.entries = map[K]*V{}
	}
	if len(b.entries) >= b.limit {
		for victim := range b.entries {
			delete(b.entries, victim)
			break
		}
	}
	b.entries[k] = v
	return v, nil
}
