package noc

import (
	"context"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/tech"
	"repro/internal/wire"
)

func synthMini(t *testing.T, lm LinkModel) *Network {
	t.Helper()
	net, err := SynthesizeCtx(context.Background(), miniSpec(), lm, SynthOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func TestSynthesizeMiniBothModels(t *testing.T) {
	for _, lm := range []LinkModel{proposed90(t), original90(t)} {
		net := synthMini(t, lm)
		if err := net.Check(); err != nil {
			t.Fatalf("%s: %v", lm.Name(), err)
		}
		m := net.Evaluate()
		if m.TotalPower() <= 0 || m.Area <= 0 || m.MaxHops < 1 {
			t.Fatalf("%s: degenerate metrics %+v", lm.Name(), m)
		}
	}
}

func TestSynthesizeRejectsBadSpec(t *testing.T) {
	lm := proposed90(t)
	bad := miniSpec()
	bad.Flows[0].Bandwidth = -1
	if _, err := SynthesizeCtx(context.Background(), bad, lm, SynthOptions{}); err == nil {
		t.Fatal("invalid spec accepted")
	}
	over := miniSpec()
	over.Flows[0].Bandwidth = 1e15 // beyond link capacity
	if _, err := SynthesizeCtx(context.Background(), over, lm, SynthOptions{}); err == nil {
		t.Fatal("oversubscribed flow accepted")
	}
}

func TestSynthesizeDeterministic(t *testing.T) {
	lm := proposed90(t)
	spec := DVOPD()
	a, err := SynthesizeCtx(context.Background(), spec, lm, SynthOptions{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := SynthesizeCtx(context.Background(), spec, lm, SynthOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Routes, b.Routes) {
		t.Fatal("synthesis routes not deterministic")
	}
	ma, mb := a.Evaluate(), b.Evaluate()
	if ma != mb {
		t.Fatalf("metrics not deterministic: %+v vs %+v", ma, mb)
	}
}

func TestLongFlowsGetRelayRouters(t *testing.T) {
	// A flow much longer than the wire-length limit must be split.
	lm := proposed90(t)
	maxLen := lm.MaxLength()
	spec := &Spec{
		Name: "long", DataWidth: 128,
		Cores: []Core{
			{Name: "a", X: 0, Y: 0},
			{Name: "b", X: 2.5 * maxLen, Y: 0},
		},
		Flows: []Flow{{Src: "a", Dst: "b", Bandwidth: 1e9}},
	}
	net, err := SynthesizeCtx(context.Background(), spec, lm, SynthOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if net.RouterCount() < 2 {
		t.Fatalf("expected ≥2 relay routers, got %d", net.RouterCount())
	}
	m := net.Evaluate()
	if m.MaxHops < 3 {
		t.Fatalf("expected ≥3 hops, got %d", m.MaxHops)
	}
	// Every link obeys the length limit.
	for li := range net.Links {
		if net.Links[li].Design.Length > maxLen*1.01 {
			t.Fatalf("link %d length %g exceeds limit %g", li, net.Links[li].Design.Length, maxLen)
		}
	}
}

func TestHopBudgetEnforced(t *testing.T) {
	// Core b sits past maxHops link lengths, so its flow needs one
	// relay segment more than the hop budget allows.
	lm := proposed90(t)
	maxLen := lm.MaxLength()
	spec := &Spec{
		Name: "toolong", DataWidth: 128,
		Cores: []Core{
			{Name: "a", X: 0, Y: 0},
			{Name: "b", X: (maxHops + 0.5) * maxLen, Y: 0},
		},
		Flows: []Flow{{Src: "a", Dst: "b", Bandwidth: 1e9}},
	}
	_, err := SynthesizeCtx(context.Background(), spec, lm, SynthOptions{})
	if err == nil || !strings.Contains(err.Error(), "needs 17 hops, exceeding the 16-hop budget") {
		t.Fatalf("hop-budget violation accepted: %v", err)
	}
}

func TestRelaySharingAcrossFlows(t *testing.T) {
	// Two parallel long flows along the same corridor should share
	// relay stations rather than each building its own chain.
	lm := proposed90(t)
	maxLen := lm.MaxLength()
	spec := &Spec{
		Name: "parallel", DataWidth: 128,
		Cores: []Core{
			{Name: "a1", X: 0, Y: 0},
			{Name: "a2", X: 0, Y: 10e-6},
			{Name: "b1", X: 2.2 * maxLen, Y: 0},
			{Name: "b2", X: 2.2 * maxLen, Y: 10e-6},
		},
		Flows: []Flow{
			{Src: "a1", Dst: "b1", Bandwidth: 1e9},
			{Src: "a2", Dst: "b2", Bandwidth: 1e9},
		},
	}
	net, err := SynthesizeCtx(context.Background(), spec, lm, SynthOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Without sharing there would be 4+ relays (2 per flow); with
	// corridor snapping there should be at most 3.
	if rc := net.RouterCount(); rc > 3 {
		t.Fatalf("relays not shared: %d routers", rc)
	}
}

func TestMergeReducesPowerOnHubTraffic(t *testing.T) {
	// Many low-bandwidth flows into one hub: sharing buses through a
	// router should win, and the result must cost no more than the
	// unmerged star.
	tc := tech.MustLookup("90nm")
	lm, err := NewProposedModel(tc, 128, wire.SWSS)
	if err != nil {
		t.Fatal(err)
	}
	spec := &Spec{Name: "hub", DataWidth: 128}
	spec.Cores = append(spec.Cores, Core{Name: "hub", X: 0, Y: 0})
	for i := 0; i < 6; i++ {
		name := string(rune('a' + i))
		spec.Cores = append(spec.Cores, Core{
			Name: name,
			X:    4e-3 + float64(i%3)*0.4e-3,
			Y:    float64(i/3)*0.4e-3 - 0.2e-3,
		})
		// Low-bandwidth flows: these links are leakage-dominated,
		// the regime where sharing a corridor bus pays for a router.
		spec.Flows = append(spec.Flows, Flow{Src: name, Dst: "hub", Bandwidth: 0.1e9})
	}
	merged, err := SynthesizeCtx(context.Background(), spec, lm, SynthOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// The unmerged star is the synthesis's own initial topology.
	s := newSynthesizer(spec, lm, SynthOptions{})
	if err := s.initialTopology(context.Background()); err != nil {
		t.Fatal(err)
	}
	unmerged := &Network{Spec: spec, Model: s.model, Router: s.router, Nodes: s.nodes, Links: s.links, Routes: s.routes}
	if err := unmerged.Check(); err != nil {
		t.Fatal(err)
	}
	pm, pu := merged.Evaluate().TotalPower(), unmerged.Evaluate().TotalPower()
	if pm > pu*(1+1e-9) {
		t.Fatalf("merging increased power: %g vs %g", pm, pu)
	}
	if merged.RouterCount() == 0 {
		t.Fatal("expected the hub pattern to trigger at least one merge")
	}
}

func TestMergePreservesInvariants(t *testing.T) {
	// VPROC at 22 nm with shielded wires under the proposed model
	// applies a dozen merges, unlike Table III's configurations, where
	// nearly every router is a relay; Check() inside SynthesizeCtx plus
	// an explicit re-check here guard the rewiring.
	lm, err := NewProposedModel(tech.MustLookup("22nm"), 128, wire.Shielded)
	if err != nil {
		t.Fatal(err)
	}
	merges := metMergesApplied.Value()
	net, err := SynthesizeCtx(context.Background(), VPROC(), lm, SynthOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if metMergesApplied.Value() == merges {
		t.Fatal("the synthesis applied no merge, so the test checks no rewiring")
	}
	if err := net.Check(); err != nil {
		t.Fatal(err)
	}
	m := net.Evaluate()
	if m.Routers == 0 {
		t.Fatal("VPROC under the proposed model should need routers")
	}
	if m.AvgHops < 1 {
		t.Fatalf("avg hops %g", m.AvgHops)
	}
}

func TestNetworkCheckCatchesCorruption(t *testing.T) {
	lm := proposed90(t)
	base := func() *Network { return synthMini(t, lm) }

	n := base()
	n.Routes[0] = nil
	if n.Check() == nil {
		t.Error("unrouted flow accepted")
	}

	n = base()
	n.Links[n.Routes[0][0]].Design.Length *= 2
	if n.Check() == nil {
		t.Error("length/geometry mismatch accepted")
	}

	n = base()
	n.Links[n.Routes[0][0]].FlowIdx = nil
	if n.Check() == nil {
		t.Error("unregistered flow accepted")
	}

	n = base()
	n.Routes[0] = []int{999}
	if n.Check() == nil {
		t.Error("out-of-range link accepted")
	}

	n = base()
	// Route ending at the wrong core.
	r0 := n.Routes[0]
	n.Routes[0] = n.Routes[1]
	n.Routes[1] = r0
	if n.Check() == nil {
		t.Error("swapped routes accepted")
	}
}

// The headline Table III assertions, on the real test cases.
func TestTableIIITrends(t *testing.T) {
	if testing.Short() {
		t.Skip("full Table III sweep in short mode")
	}
	for _, name := range []string{"90nm", "65nm", "45nm"} {
		tc := tech.MustLookup(name)
		for _, spec := range TestCases() {
			orig, err := NewOriginalModel(tc, spec.DataWidth, wire.SWSS)
			if err != nil {
				t.Fatal(err)
			}
			prop, err := NewProposedModel(tc, spec.DataWidth, wire.SWSS)
			if err != nil {
				t.Fatal(err)
			}
			no, err := SynthesizeCtx(context.Background(), spec, orig, SynthOptions{})
			if err != nil {
				t.Fatalf("%s/%s original: %v", name, spec.Name, err)
			}
			np, err := SynthesizeCtx(context.Background(), spec, prop, SynthOptions{})
			if err != nil {
				t.Fatalf("%s/%s proposed: %v", name, spec.Name, err)
			}
			mo, mp := no.Evaluate(), np.Evaluate()

			if ratio := mp.LinkDynamic / mo.LinkDynamic; ratio < 1.3 || ratio > 4 {
				t.Errorf("%s/%s: dynamic ratio %.2f outside Table III band (paper: up to ~3×)", name, spec.Name, ratio)
			}
			if mp.LinkLeakage <= mo.LinkLeakage {
				t.Errorf("%s/%s: proposed leakage not above original", name, spec.Name)
			}
			if mp.Area <= mo.Area {
				t.Errorf("%s/%s: proposed area not above original", name, spec.Name)
			}
			if mp.MaxHops < mo.MaxHops {
				t.Errorf("%s/%s: proposed hops %d below original %d", name, spec.Name, mp.MaxHops, mo.MaxHops)
			}
			if mp.AvgLatency < mo.AvgLatency {
				t.Errorf("%s/%s: proposed latency below original", name, spec.Name)
			}
		}
	}
}

// The paper's 65→45 nm dynamic-power increase (library Vdd 1.0→1.1V).
func TestDynamicPowerRises65To45(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep in short mode")
	}
	for _, spec := range TestCases() {
		dyn := map[string]float64{}
		for _, name := range []string{"65nm", "45nm"} {
			tc := tech.MustLookup(name)
			prop, err := NewProposedModel(tc, spec.DataWidth, wire.SWSS)
			if err != nil {
				t.Fatal(err)
			}
			net, err := SynthesizeCtx(context.Background(), spec, prop, SynthOptions{})
			if err != nil {
				t.Fatal(err)
			}
			dyn[name] = net.Evaluate().LinkDynamic
		}
		if !(dyn["45nm"] > dyn["65nm"]) {
			t.Errorf("%s: dynamic power did not rise 65→45nm (%g vs %g)", spec.Name, dyn["65nm"], dyn["45nm"])
		}
	}
}

func TestMetricsTotalPower(t *testing.T) {
	m := Metrics{LinkDynamic: 1, LinkLeakage: 2, RouterPower: 3}
	if m.TotalPower() != 6 {
		t.Fatal("TotalPower")
	}
}

func TestInsertHelpers(t *testing.T) {
	r := []int{10, 20, 30}
	if got := insertAfter(append([]int(nil), r...), 1, 99); !reflect.DeepEqual(got, []int{10, 20, 99, 30}) {
		t.Fatalf("insertAfter: %v", got)
	}
	if got := insertBefore(append([]int(nil), r...), 1, 99); !reflect.DeepEqual(got, []int{10, 99, 20, 30}) {
		t.Fatalf("insertBefore: %v", got)
	}
}

func TestEvaluateWireLengthMatchesLinks(t *testing.T) {
	lm := proposed90(t)
	net := synthMini(t, lm)
	m := net.Evaluate()
	sum := 0.0
	for li := range net.Links {
		sum += net.Links[li].Design.Length
	}
	if math.Abs(m.WireLength-sum) > 1e-12 {
		t.Fatal("wire length mismatch")
	}
}

func BenchmarkSynthesizeDVOPD(b *testing.B) {
	tc := tech.MustLookup("90nm")
	lm, err := NewProposedModel(tc, 128, wire.SWSS)
	if err != nil {
		b.Fatal(err)
	}
	spec := DVOPD()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SynthesizeCtx(context.Background(), spec, lm, SynthOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}
