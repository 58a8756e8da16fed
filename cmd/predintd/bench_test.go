package main

import (
	"context"
	"net/http/httptest"
	"testing"
	"time"

	predint "repro"
	"repro/internal/coordinator"
)

// BenchmarkLinkYieldCoordinator measures the shard protocol's overhead
// on top of the kernel. "direct" runs the estimation in-process;
// "loopback" routes the identical request through a coordinator with
// one loopback worker, a predintd replica in its default configuration,
// so every shard takes the production path: HTTP, admission, the strict
// decode, the compact JSON answer and the partial merge. Their ratio is
// gated in CI by scripts/bench_yield.sh's coordinator ceilings: the
// merge is bookkeeping around the same sample evaluations and must stay
// a small constant factor.
func BenchmarkLinkYieldCoordinator(b *testing.B) {
	req := predint.YieldRequest{
		Tech:      "90nm",
		LengthMM:  5,
		Samples:   predint.Int(2048),
		Seed:      1,
		TargetPS:  predint.Float(520),
		NoSurface: true,
	}
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
		ts := httptest.NewServer(newServer(8, 64, 65536, 30*time.Second, time.Second).routes())
		defer ts.Close()
		coord, err := coordinator.New(coordinator.Config{Workers: []string{ts.URL}})
		if err != nil {
			b.Fatal(err)
		}
		defer coord.Close()
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
