package noc

import (
	"testing"

	"repro/internal/tech"
	"repro/internal/wire"
)

func proposed90(t testing.TB) *ProposedModel {
	t.Helper()
	m, err := NewProposedModel(tech.MustLookup("90nm"), 128, wire.SWSS)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func original90(t testing.TB) *OriginalModel {
	t.Helper()
	m, err := NewOriginalModel(tech.MustLookup("90nm"), 128, wire.SWSS)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestLinkModelBasics(t *testing.T) {
	for _, lm := range []LinkModel{proposed90(t), original90(t)} {
		if lm.Tech().Name != "90nm" {
			t.Fatalf("%s: wrong tech", lm.Name())
		}
		if lm.MaxLength() <= 0 {
			t.Fatalf("%s: no feasible length", lm.Name())
		}
		d, err := lm.Design(1e-3)
		if err != nil {
			t.Fatalf("%s: 1mm design: %v", lm.Name(), err)
		}
		if d.Delay <= 0 || d.DynFull <= 0 || d.Leakage <= 0 || d.Area <= 0 || d.N < 1 {
			t.Fatalf("%s: degenerate design %+v", lm.Name(), d)
		}
		if _, err := lm.Design(0); err == nil {
			t.Fatalf("%s: zero length accepted", lm.Name())
		}
		if _, err := lm.Design(lm.MaxLength() * 1.2); err == nil {
			t.Fatalf("%s: beyond-frontier design accepted", lm.Name())
		}
	}
}

func TestFeasibilityFrontierConsistent(t *testing.T) {
	for _, lm := range []LinkModel{proposed90(t), original90(t)} {
		max := lm.MaxLength()
		if _, err := lm.Design(max * 0.98); err != nil {
			t.Fatalf("%s: design just inside frontier failed: %v", lm.Name(), err)
		}
		if _, err := lm.Design(max * 1.05); err == nil {
			t.Fatalf("%s: design just beyond frontier succeeded", lm.Name())
		}
	}
}

// The paper's central Table III observation: the original model is
// "very optimistic in allowing the use of excessively long wires".
func TestOriginalAllowsLongerWires(t *testing.T) {
	for _, name := range []string{"90nm", "65nm", "45nm"} {
		tc := tech.MustLookup(name)
		orig, err := NewOriginalModel(tc, 128, wire.SWSS)
		if err != nil {
			t.Fatal(err)
		}
		prop, err := NewProposedModel(tc, 128, wire.SWSS)
		if err != nil {
			t.Fatal(err)
		}
		if !(orig.MaxLength() > 1.5*prop.MaxLength()) {
			t.Errorf("%s: original max %.2fmm not well above proposed %.2fmm",
				name, orig.MaxLength()*1e3, prop.MaxLength()*1e3)
		}
	}
}

func TestLinkDesignMonotoneInLength(t *testing.T) {
	for _, lm := range []LinkModel{proposed90(t), original90(t)} {
		var prevDyn, prevLeak float64
		for i, L := range []float64{1e-3, 2e-3, 4e-3} {
			d, err := lm.Design(L)
			if err != nil {
				t.Fatal(err)
			}
			if i > 0 && (d.DynFull <= prevDyn || d.Leakage < prevLeak) {
				t.Fatalf("%s: power not monotone in length", lm.Name())
			}
			prevDyn, prevLeak = d.DynFull, d.Leakage
		}
	}
}

func TestProposedSeesCouplingPower(t *testing.T) {
	// At equal length, the proposed model's dynamic power includes
	// coupling and bigger repeaters: it must exceed the original's.
	orig, prop := original90(t), proposed90(t)
	do, err := orig.Design(3e-3)
	if err != nil {
		t.Fatal(err)
	}
	dp, err := prop.Design(3e-3)
	if err != nil {
		t.Fatal(err)
	}
	ratio := dp.DynFull / do.DynFull
	if ratio < 1.3 || ratio > 5 {
		t.Fatalf("proposed/original dynamic ratio %.2f outside the Table III band", ratio)
	}
	if dp.Leakage <= do.Leakage {
		t.Fatal("proposed leakage should exceed original's optimistic estimate")
	}
	if dp.Area <= do.Area {
		t.Fatal("proposed area should exceed original's simplistic estimate")
	}
}

// Layer assignment: the lowest layer that meets timing wins, so short
// links route on the intermediate layer and long ones escalate to the
// global layer.
func TestLayerAssignment(t *testing.T) {
	for _, lm := range []LinkModel{proposed90(t), original90(t)} {
		short, err := lm.Design(100e-6)
		if err != nil {
			t.Fatalf("%s short: %v", lm.Name(), err)
		}
		if short.Layer != "intermediate" {
			t.Errorf("%s: 0.1mm link on %q, want intermediate", lm.Name(), short.Layer)
		}
		long, err := lm.Design(lm.MaxLength() * 0.95)
		if err != nil {
			t.Fatalf("%s long: %v", lm.Name(), err)
		}
		if long.Layer != "global" {
			t.Errorf("%s: near-frontier link on %q, want global", lm.Name(), long.Layer)
		}
	}
}

func TestDynAtClamps(t *testing.T) {
	d := LinkDesign{DynFull: 10}
	if d.DynAt(-1) != 0 || d.DynAt(2) != 10 || d.DynAt(0.5) != 5 {
		t.Fatal("DynAt clamping")
	}
}

func TestBadWidthRejected(t *testing.T) {
	tc := tech.MustLookup("90nm")
	if _, err := NewProposedModel(tc, 0, wire.SWSS); err == nil {
		t.Fatal("zero width accepted")
	}
	if _, err := NewOriginalModel(tc, -1, wire.SWSS); err == nil {
		t.Fatal("negative width accepted")
	}
}

func TestRouterParams(t *testing.T) {
	for _, name := range []string{"90nm", "65nm", "45nm"} {
		tc := tech.MustLookup(name)
		p := DefaultRouterParams(tc)
		if p.EnergyPerBit <= 0 || p.LeakPerPort <= 0 || p.AreaPerPort <= 0 {
			t.Fatalf("%s: non-positive router params %+v", name, p)
		}
		if p.MaxPorts < 3 || p.Cycles < 1 {
			t.Fatalf("%s: degenerate limits", name)
		}
	}
	// The 45nm LP node must have the lowest router leakage.
	l90 := DefaultRouterParams(tech.MustLookup("90nm")).LeakPerPort
	l45 := DefaultRouterParams(tech.MustLookup("45nm")).LeakPerPort
	if !(l45 < l90) {
		t.Fatal("45nm LP router leakage should be lowest")
	}
	p := DefaultRouterParams(tech.MustLookup("90nm"))
	if p.Power(1e9, 5) <= p.Power(0, 5) {
		t.Fatal("router power must grow with throughput")
	}
	if p.Area(5) != 5*p.AreaPerPort {
		t.Fatal("router area")
	}
}
