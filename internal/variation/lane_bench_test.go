package variation

import (
	"context"
	"testing"

	"repro/internal/estimator"
)

// BenchmarkNormsInto measures the per-draw cost of filling one
// Dims-wide draw vector per sample — the sampler half of the hot
// path: the ziggurat draw of the mc and isle rungs and the Box–Muller
// draw (Stream.NormsInto) of the AIS rung. The ns/draw metric divides
// out the vector width so the two compare per scalar normal.
func BenchmarkNormsInto(b *testing.B) {
	for _, c := range []struct {
		name string
		fill func(st *Stream, dst []float64)
	}{
		{"ziggurat", func(st *Stream, dst []float64) {
			for d := range dst {
				dst[d] = st.NormZig()
			}
		}},
		{"box-muller", (*Stream).NormsInto},
	} {
		b.Run(c.name, func(b *testing.B) {
			dst := make([]float64, Dims)
			var st Stream
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				st.Reset(1, uint64(i))
				c.fill(&st, dst)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(Dims), "ns/draw")
		})
	}
}

// BenchmarkLaneKernel measures the engine-level sampling kernel on the
// same single-candidate scenario the yield facade evaluates, with the
// facade, fold and stopping rule around it: lane draws ziggurat normals
// (the mc rung), qmc scrambled Sobol points through Φ⁻¹.
func BenchmarkLaneKernel(b *testing.B) {
	sc := testScenario(b, 520e-12)
	const samples = 2048
	for _, c := range []struct {
		name string
		kind estimator.Kind
	}{
		{"lane", estimator.Auto},
		{"qmc", estimator.QMC},
	} {
		o := YieldOptions{Samples: samples, Seed: 1, Workers: 1, Estimator: c.kind}
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := EstimateLinkYieldCtx(context.Background(), sc, o); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/samples, "ns/sample")
			b.ReportMetric(samples, "samples/op")
		})
	}
}
