package noc

import (
	"context"
	"errors"
	"math"
	"testing"
)

func simNet(t *testing.T) *Network {
	t.Helper()
	net, err := SynthesizeCtx(context.Background(), DVOPD(), proposed90(t), SynthOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func TestSimulateDeliversTraffic(t *testing.T) {
	net := simNet(t)
	res, err := net.Simulate(SimConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if res.PacketsInjected == 0 {
		t.Fatal("no packets injected — rates or window broken")
	}
	if res.PacketsDelivered != res.PacketsInjected {
		t.Fatalf("delivered %d of %d packets", res.PacketsDelivered, res.PacketsInjected)
	}
	if res.AvgLatency <= 0 || res.MaxLatency < res.AvgLatency {
		t.Fatalf("bad latency stats: avg %g max %g", res.AvgLatency, res.MaxLatency)
	}
}

func TestSimulateLatencyVsZeroLoad(t *testing.T) {
	net := simNet(t)
	cfg := SimConfig{}.withDefaults()
	res, err := net.Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Per-packet averages are bandwidth-weighted by construction.
	zero := net.WeightedZeroLoadLatency(cfg.PacketFlits)
	if res.AvgLatency < zero*0.999 {
		t.Fatalf("simulated latency %g below zero-load bound %g", res.AvgLatency, zero)
	}
	// DVOPD's utilizations are tiny: queueing should add little.
	if res.AvgLatency > 3*zero {
		t.Fatalf("simulated latency %g implausibly above zero-load %g at low load", res.AvgLatency, zero)
	}
}

func TestSimulateUtilizationMatchesAnalytic(t *testing.T) {
	net := simNet(t)
	res, err := net.Simulate(SimConfig{Cycles: 50000})
	if err != nil {
		t.Fatal(err)
	}
	if worst := utilizationError(net, res); worst > 0.05 {
		t.Fatalf("worst utilization mismatch %.3f between simulation and analytic model", worst)
	}
}

func TestSimulateDeterministic(t *testing.T) {
	net := simNet(t)
	a, err := net.Simulate(SimConfig{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := net.Simulate(SimConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if a.PacketsDelivered != b.PacketsDelivered || a.AvgLatency != b.AvgLatency {
		t.Fatal("simulation not deterministic")
	}
}

func TestSimulateDetectsOverload(t *testing.T) {
	// Force an oversubscribed situation by inflating a flow's rate
	// beyond capacity after synthesis (bypassing Check would catch
	// it, so build a tiny net and corrupt the spec copy).
	lm := proposed90(t)
	spec := &Spec{
		Name: "tight", DataWidth: 128,
		Cores: []Core{{Name: "a"}, {Name: "b", X: 1e-3}},
		Flows: []Flow{{Src: "a", Dst: "b", Bandwidth: 100e9}},
	}
	net, err := SynthesizeCtx(context.Background(), spec, lm, SynthOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Inflate demand beyond link capacity post-hoc.
	net.Spec.Flows[0].Bandwidth = 1.2 * float64(spec.DataWidth) * lm.Tech().Clock
	if _, err := net.Simulate(SimConfig{Cycles: 2000, Drain: 1000}); err == nil {
		t.Fatal("oversubscribed simulation should fail to drain")
	}
}

func TestSimulateBurstinessRaisesLatency(t *testing.T) {
	net := simNet(t)
	smooth, err := net.Simulate(SimConfig{Cycles: 40000})
	if err != nil {
		t.Fatal(err)
	}
	bursty, err := net.Simulate(SimConfig{Cycles: 40000, Burst: 6})
	if err != nil {
		t.Fatal(err)
	}
	// Same offered rate, so all traffic still drains…
	if bursty.PacketsDelivered != bursty.PacketsInjected {
		t.Fatal("bursty traffic lost packets")
	}
	// …but back-to-back trains queue behind each other.
	if !(bursty.AvgLatency > smooth.AvgLatency) {
		t.Fatalf("burstiness did not raise latency: %g vs %g", bursty.AvgLatency, smooth.AvgLatency)
	}
	if !(bursty.MaxLatency > smooth.MaxLatency) {
		t.Fatalf("burstiness did not raise tail latency")
	}
}

func TestZeroLoadLatencyShape(t *testing.T) {
	net := simNet(t)
	cfg := SimConfig{}.withDefaults()
	for fi := range net.Routes {
		z := net.ZeroLoadLatency(fi, cfg.PacketFlits)
		hops := len(net.Routes[fi])
		period := 1 / net.Model.Tech().Clock
		want := float64(hops*cfg.PacketFlits+(hops-1)*net.Router.Cycles) * period
		if math.Abs(z-want) > 1e-15 {
			t.Fatalf("flow %d zero-load %g want %g", fi, z, want)
		}
	}
	if net.AvgZeroLoadLatency(cfg.PacketFlits) <= 0 {
		t.Fatal("bad average zero-load latency")
	}
}

func BenchmarkSimulateDVOPD(b *testing.B) {
	lm := proposed90(b)
	net, err := SynthesizeCtx(context.Background(), DVOPD(), lm, SynthOptions{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := net.Simulate(SimConfig{Cycles: 10000}); err != nil {
			b.Fatal(err)
		}
	}
}

func TestSimConfigValidate(t *testing.T) {
	cases := []struct {
		name string
		cfg  SimConfig
		want error
	}{
		{"zero-is-default", SimConfig{}, nil},
		{"explicit-valid", SimConfig{Cycles: 100, Warmup: 10, PacketFlits: 4, Drain: 50, Burst: 2}, nil},
		{"negative-cycles", SimConfig{Cycles: -1}, ErrNegativeCycles},
		{"negative-warmup", SimConfig{Warmup: -5}, ErrNegativeWarmup},
		{"negative-flits", SimConfig{PacketFlits: -8}, ErrNegativePacketFlits},
		{"negative-drain", SimConfig{Drain: -100}, ErrNegativeDrain},
		{"negative-burst", SimConfig{Burst: -2}, ErrNegativeBurst},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.cfg.Validate()
			if tc.want == nil {
				if err != nil {
					t.Fatalf("valid config rejected: %v", err)
				}
				return
			}
			if !errors.Is(err, tc.want) {
				t.Fatalf("got %v, want %v", err, tc.want)
			}
		})
	}
}

func TestSimulateRejectsNegativeConfig(t *testing.T) {
	net := simNet(t)
	_, err := net.Simulate(SimConfig{Burst: -1})
	if !errors.Is(err, ErrNegativeBurst) {
		t.Fatalf("Simulate accepted a negative burst: %v", err)
	}
	_, err = net.Simulate(SimConfig{Cycles: -20000})
	if !errors.Is(err, ErrNegativeCycles) {
		t.Fatalf("Simulate accepted negative cycles: %v", err)
	}
}
