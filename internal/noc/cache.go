package noc

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"

	"repro/internal/faultinject"
	"repro/internal/obs"
)

// lengthQuantum is the design-cache granularity: link lengths are
// quantized to 1 µm buckets before designing, because the greedy merge
// loop re-designs near-identical lengths constantly and a buffered
// global link's solution is insensitive below that scale.
const lengthQuantum = 1e-6

// designCacheShards spreads the cache over independently locked
// shards so concurrent candidate evaluations do not serialize on one
// mutex. Sixteen shards keeps contention negligible up to the core
// counts the worker pool uses while costing nothing at small sizes.
const designCacheShards = 16

// Design-cache observability (see internal/obs).
var (
	metCacheHits   = obs.NewCounter("noc.design_cache.hits")
	metCacheMisses = obs.NewCounter("noc.design_cache.misses")
	metDesigns     = obs.NewCounter("noc.designs_computed")
)

// DesignCache is a concurrency-safe memoizing wrapper around a
// LinkModel, keyed by the quantized link length. The technology,
// wire style, bus width, and buffering objective are all fixed
// properties of the wrapped model, so one cache instance corresponds
// to exactly one (tech, style, width, buffering-options) tuple; share
// a single DesignCache across a synthesis run — or several runs over
// the same model — to reuse every design.
//
// All methods are safe for concurrent use. Each distinct length is
// designed at most once even under concurrent callers (duplicate
// requests block on the first computation rather than recomputing),
// which requires the wrapped model's Design to be safe for concurrent
// calls — true of every implementation in this package. Successful
// designs and failures are memoized, since a design is a deterministic
// function of its length and recomputing cannot change it;
// cancellation and deadline errors are not, so a lookup aborted by a
// dying context never poisons the entry for later callers sharing the
// cache — the next lookup computes it afresh.
type DesignCache struct {
	LinkModel
	shards [designCacheShards]designShard
}

type designShard struct {
	mu sync.Mutex
	m  map[int64]*designEntry
}

// designEntry holds one bucket's design. The entry mutex doubles as
// the computation lock: the first caller computes while holding it and
// duplicates block behind it, the same single-computation guarantee a
// sync.Once would give — but, unlike a Once, an entry left undecided
// by a cancelled computation is computed by the next caller.
type designEntry struct {
	mu   sync.Mutex
	done bool
	d    LinkDesign
	err  error
}

// NewDesignCache wraps a LinkModel with a sharded design cache.
// Wrapping an existing *DesignCache returns it unchanged, so callers
// can defensively wrap without stacking caches.
func NewDesignCache(lm LinkModel) *DesignCache {
	if c, ok := lm.(*DesignCache); ok {
		return c
	}
	c := &DesignCache{LinkModel: lm}
	for i := range c.shards {
		c.shards[i].m = make(map[int64]*designEntry)
	}
	return c
}

// ctxDesigner is the optional context-aware design hook: a wrapped
// model implementing it receives the caller's context (another
// *DesignCache does, as do test doubles that watch for cancellation).
type ctxDesigner interface {
	DesignCtx(ctx context.Context, length float64) (LinkDesign, error)
}

// designVia dispatches to the wrapped model's context-aware Design
// when it has one.
func designVia(ctx context.Context, lm LinkModel, length float64) (LinkDesign, error) {
	if cd, ok := lm.(ctxDesigner); ok {
		return cd.DesignCtx(ctx, length)
	}
	return lm.Design(length)
}

// contextErr reports whether a design error reflects the caller's
// context rather than the design problem itself. Such errors must not
// be memoized: the next caller, with a live context, may well succeed.
func contextErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// compute runs one bucket's design computation behind the
// noc.cache.compute fault point.
func (c *DesignCache) compute(ctx context.Context, length float64) (LinkDesign, error) {
	if err := faultinject.Hit("noc.cache.compute"); err != nil {
		return LinkDesign{}, err
	}
	return designVia(ctx, c.LinkModel, length)
}

// Design returns the cached design for the quantized length,
// computing and memoizing it on first use. Non-positive (or NaN)
// lengths are rejected outright: the former implementation clamped
// them into the 1 µm bucket, silently aliasing invalid requests to a
// real design. Positive lengths below half the quantum are designed
// at their exact length and not cached, so they cannot alias either.
func (c *DesignCache) Design(length float64) (LinkDesign, error) {
	return c.DesignCtx(context.Background(), length)
}

// DesignCtx is Design under a context: the lookup aborts with ctx's
// error when the context is done before the design is resolved, and a
// cancelled computation leaves the cache entry undecided for the next
// caller instead of memoizing the cancellation.
func (c *DesignCache) DesignCtx(ctx context.Context, length float64) (LinkDesign, error) {
	if err := ctx.Err(); err != nil {
		return LinkDesign{}, err
	}
	if math.IsNaN(length) || length <= 0 {
		return LinkDesign{}, fmt.Errorf("noc: non-positive link length %g", length)
	}
	q := int64(math.Round(length / lengthQuantum))
	if q < 1 {
		return designVia(ctx, c.LinkModel, length)
	}
	sh := &c.shards[q%designCacheShards]
	sh.mu.Lock()
	e, ok := sh.m[q]
	if !ok {
		e = &designEntry{}
		sh.m[q] = e
	}
	sh.mu.Unlock()

	e.mu.Lock()
	defer e.mu.Unlock()
	if e.done {
		metCacheHits.Inc()
		return e.d, e.err
	}
	// The context may have died while this caller was blocked behind
	// another computation; bail before starting our own, leaving the
	// entry undecided.
	if err := ctx.Err(); err != nil {
		return LinkDesign{}, err
	}
	metCacheMisses.Inc()
	d, err := c.compute(ctx, float64(q)*lengthQuantum)
	if err != nil && contextErr(err) {
		return LinkDesign{}, err
	}
	e.d, e.err, e.done = d, err, true
	if err == nil {
		metDesigns.Inc()
	}
	return e.d, e.err
}

// Len reports the number of decided cache entries (diagnostics and
// tests). Entries whose computation was cancelled and never redone do
// not count: they hold no design.
func (c *DesignCache) Len() int {
	n := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		for _, e := range sh.m {
			e.mu.Lock()
			if e.done {
				n++
			}
			e.mu.Unlock()
		}
		sh.mu.Unlock()
	}
	return n
}

var _ LinkModel = (*DesignCache)(nil)
var _ ctxDesigner = (*DesignCache)(nil)
