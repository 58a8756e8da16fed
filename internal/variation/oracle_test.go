package variation

import (
	"context"
	"math"

	"repro/internal/pool"
)

// trial evaluates one sample of the oracle given its standardized draw
// z (length dims) and reports whether the sample fails the
// constraint under estimation. It must be safe for concurrent
// invocation. z is a reusable oracle-owned buffer: it is valid only for
// the duration of the call and must not be retained.
type trial func(i int, z []float64) (fail bool, err error)

// runOracle is the historical one-sample-at-a-time estimator, kept as
// the tests' independent reference for the sampling driver: sample i
// draws dims ziggurat normals from its own Stream keyed by (Seed, i),
// is mean-shifted by shift and weighted by the likelihood ratio when
// shift is non-nil (at most dims long; nil runs plain Monte Carlo), is
// scored by tr, and is folded in index order through the production
// fold and stopping rule. Beyond the Stream primitives, the fold and
// the stopping rule it shares nothing with driver.run and the lane
// kernel — not the dispatch, the transposed lane draw or the shift
// arithmetic — so agreement between the two is evidence rather than
// tautology. Each worker owns a reusable Stream and draw buffer, so
// the steady path performs no heap allocation. The estimate is
// bit-identical for every Workers value.
func runOracle(o YieldOptions, dims int, shift []float64, tr trial) (Estimate, error) {
	o = o.withDefaults()
	if err := o.validate(); err != nil {
		return Estimate{}, err
	}
	shifted := false
	var shiftSq float64
	for _, t := range shift {
		if t != 0 {
			shifted = true
		}
		shiftSq += t * t
	}

	f := fold{shifted: shifted}

	// Per-worker scratch: one stream and one draw buffer per worker
	// id, allocated once for the whole run. A worker id is held by
	// exactly one goroutine at a time and batches are separated by the
	// pool's join, so reuse is race-free.
	maxW := pool.Workers(o.Workers, Batch)
	streams := make([]Stream, maxW)
	zbuf := make([]float64, maxW*dims)

	contrib := make([]float64, Batch)
	for done := 0; done < o.Samples; {
		batch := Batch
		if rem := o.Samples - done; rem < batch {
			batch = rem
		}
		start := done
		err := pool.ForEachWorkerCtx(context.Background(), o.Workers, batch, func(k, worker int) error {
			i := start + k
			st := &streams[worker]
			st.Reset(o.Seed, uint64(i))
			z := zbuf[worker*dims : (worker+1)*dims]
			for d := range z {
				z[d] = st.NormZig()
			}
			w := 1.0
			if shifted {
				// z ← θ + ε with likelihood ratio
				// φ(z)/φ(z−θ) = exp(−⟨θ,z⟩ + |θ|²/2).
				var dot float64
				for d, t := range shift {
					z[d] += t
					dot += t * z[d]
				}
				w = math.Exp(-dot + shiftSq/2)
			}
			fail, err := tr(i, z)
			if err != nil {
				return err
			}
			if fail {
				contrib[k] = w
			} else {
				contrib[k] = 0
			}
			return nil
		})
		if err != nil {
			return Estimate{}, err
		}
		f.add(start, batch, contrib, 1)
		done += batch
		if f.stop(o) {
			break
		}
	}
	return f.estimate(), nil
}
