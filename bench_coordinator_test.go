package predint_test

// Coordinator merge-overhead benches, in an external test package:
// internal/coordinator imports the facade, so the loopback harness
// cannot live in bench_test.go's internal package without a cycle.
//
// "direct" runs the estimation in-process; "loopback" routes the
// identical request through a coordinator with one loopback worker —
// full shard protocol (HTTP + JSON + partial merge) over a single
// local replica. Their ratio is the protocol's overhead on top of the
// kernel, gated in CI by scripts/bench_yield.sh's coordinator ceiling:
// the merge must stay a small constant factor, because it is pure
// bookkeeping around the same sample evaluations.

import (
	"context"
	"net/http/httptest"
	"testing"

	predint "repro"
	"repro/internal/coordinator"
)

func coordinatorBenchRequest() predint.YieldRequest {
	return predint.YieldRequest{
		Tech:      "90nm",
		LengthMM:  5,
		Samples:   predint.Int(2048),
		Seed:      1,
		TargetPS:  predint.Float(520),
		NoSurface: true,
	}
}

func BenchmarkLinkYieldCoordinator(b *testing.B) {
	req := coordinatorBenchRequest()
	want, err := predint.Surfaced{}.LinkYieldCtx(context.Background(), req)
	if err != nil {
		b.Fatal(err)
	}

	b.Run("direct", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := predint.Surfaced{}.LinkYieldCtx(context.Background(), req)
			if err != nil {
				b.Fatal(err)
			}
			if res != want {
				b.Fatalf("direct run drifted: %+v != %+v", res, want)
			}
		}
	})

	// A trailing digit in the name would collide with the benchmark
	// table's GOMAXPROCS-suffix stripping, so the single-worker run is
	// plain "loopback".
	b.Run("loopback", func(b *testing.B) {
		ts := httptest.NewServer(coordinator.Handler(nil))
		defer ts.Close()
		coord, err := coordinator.New(coordinator.Config{Workers: []string{ts.URL}})
		if err != nil {
			b.Fatal(err)
		}
		ctx := context.Background()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := coord.Estimate(ctx, req)
			if err != nil {
				b.Fatal(err)
			}
			if res != want {
				b.Fatalf("coordinated run not bit-identical: %+v != %+v", res, want)
			}
		}
	})
}
