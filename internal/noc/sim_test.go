package noc

import (
	"context"
	"math"
	"strings"
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
	res, err := net.Simulate()
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
	// Simulated latency includes packet serialization, so it cannot
	// undercut the analytic hop latency.
	if res.AvgLatency < net.Evaluate().AvgLatency {
		t.Fatal("simulated latency (with serialization) below analytic zero-load hop latency")
	}
}

func TestSimulateLatencyVsZeroLoad(t *testing.T) {
	net := simNet(t)
	res, err := net.Simulate()
	if err != nil {
		t.Fatal(err)
	}
	// Per-packet averages are bandwidth-weighted by construction.
	zero := net.WeightedZeroLoadLatency(simPacketFlits)
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
	res, err := net.Simulate()
	if err != nil {
		t.Fatal(err)
	}
	if worst := utilizationError(net, res); worst > 0.05 {
		t.Fatalf("worst utilization mismatch %.3f between simulation and analytic model", worst)
	}
}

func TestSimulateDeterministic(t *testing.T) {
	net := simNet(t)
	a, err := net.Simulate()
	if err != nil {
		t.Fatal(err)
	}
	b, err := net.Simulate()
	if err != nil {
		t.Fatal(err)
	}
	if a.PacketsDelivered != b.PacketsDelivered || a.AvgLatency != b.AvgLatency {
		t.Fatal("simulation not deterministic")
	}
}

func TestSimulateDetectsOverload(t *testing.T) {
	// Inflate a flow's demand beyond its link's capacity after
	// synthesis: Simulate checks the network first, so the
	// oversubscribed link is refused before any packet is injected.
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
	net.Spec.Flows[0].Bandwidth = 1.2 * float64(spec.DataWidth) * lm.Tech().Clock
	_, err = net.Simulate()
	if err == nil || !strings.Contains(err.Error(), "link 0 oversubscribed (120%)") {
		t.Fatalf("oversubscribed network simulated: %v", err)
	}
}

func TestZeroLoadLatencyShape(t *testing.T) {
	net := simNet(t)
	for fi := range net.Routes {
		z := net.ZeroLoadLatency(fi, simPacketFlits)
		hops := len(net.Routes[fi])
		period := 1 / net.Model.Tech().Clock
		want := float64(hops*simPacketFlits+(hops-1)*net.Router.Cycles) * period
		if math.Abs(z-want) > 1e-15 {
			t.Fatalf("flow %d zero-load %g want %g", fi, z, want)
		}
	}
	if net.AvgZeroLoadLatency(simPacketFlits) <= 0 {
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
		if _, err := net.Simulate(); err != nil {
			b.Fatal(err)
		}
	}
}
