package predint

import (
	"context"
	"testing"

	"repro/internal/noc"
)

// nocPins are Table III's syntheses, VPROC and DVOPD at 90 nm and
// 45 nm under the proposed and the original link model, with every
// figure SynthesizeNoC reported for them. None of those applies a
// channel merge, so VPROC at 65 nm under the original model, which
// applies four, pins the merge path too.
var nocPins = []struct {
	cs, tech string
	original bool
	metrics  noc.Metrics
	links    int
	routers  int
	maxLenMM float64
}{
	{"VPROC", "90nm", false, noc.Metrics{LinkDynamic: 0x1.d9e3ff13dd04p-04, LinkLeakage: 0x1.81f16d7c407eap-07, RouterPower: 0x1.1702a5f7a0e0ep-09, Area: 0x1.d8fda679611e4p-17, LinkArea: 0x1.d0d64bd2b2af5p-17, MaxHops: 2, AvgHops: 0x1.1ee58469ee584p+00, AvgLatency: 0x1.0fb7e8752879ap-30, Routers: 5, Links: 63, WireLength: 0x1.5e353f7ced91bp-03}, 63, 5, 0x1.8df4b3987a8c1p+02},
	{"VPROC", "90nm", true, noc.Metrics{LinkDynamic: 0x1.ef970fdd0fbe3p-05, LinkLeakage: 0x1.561819e51ef74p-09, RouterPower: 0x0p+00, Area: 0x1.9bb5d8fe71012p-18, LinkArea: 0x1.9bb5d8fe71012p-18, MaxHops: 1, AvgHops: 0x1p+00, AvgLatency: 0x1.6e80fe033c8c2p-31, Routers: 0, Links: 58, WireLength: 0x1.70a3d70a3d70ep-03}, 58, 0, 0x1.e2839ac0d1a6dp+03},
	{"VPROC", "45nm", false, noc.Metrics{LinkDynamic: 0x1.58ac371ff0316p-04, LinkLeakage: 0x1.7eae7c6cc7848p-10, RouterPower: 0x1.2c226b14a6b0ap-07, Area: 0x1.1309d9c20fc89p-17, LinkArea: 0x1.03eb8c57ac5acp-17, MaxHops: 7, AvgHops: 0x1.08d3dcb08d3ddp+01, AvgLatency: 0x1.e367edee332bfp-30, Routers: 32, Links: 96, WireLength: 0x1.26e978d4fdf3fp-03}, 96, 32, 0x1.a7c476f5e48f6p+00},
	{"VPROC", "45nm", true, noc.Metrics{LinkDynamic: 0x1.6da81a4c57e4bp-05, LinkLeakage: 0x1.58cfe2c7591bep-11, RouterPower: 0x1.3c898a18df0b2p-09, Area: 0x1.e2fb093e46e84p-19, LinkArea: 0x1.cbe0ddbb58adfp-19, MaxHops: 3, AvgHops: 0x1.58469ee58469fp+00, AvgLatency: 0x1.b40363272922ap-31, Routers: 15, Links: 73, WireLength: 0x1.5374bc6a7efa2p-03}, 73, 15, 0x1.07f799a82d23ep+02},
	{"DVOPD", "90nm", false, noc.Metrics{LinkDynamic: 0x1.7d5615beb949p-05, LinkLeakage: 0x1.8760ff40b4c87p-08, RouterPower: 0x1.15d4a88e54163p-09, Area: 0x1.363c751683532p-17, LinkArea: 0x1.2e151a6fd4e42p-17, MaxHops: 2, AvgHops: 0x1.2aaaaaaaaaaabp+00, AvgLatency: 0x1.316b7e5807ca4p-30, Routers: 6, Links: 42, WireLength: 0x1.9f559b3d07c85p-04}, 42, 6, 0x1.8df4b3987a8c1p+02},
	{"DVOPD", "90nm", true, noc.Metrics{LinkDynamic: 0x1.a3d7c1b21236ap-06, LinkLeakage: 0x1.2c0ea18f79888p-09, RouterPower: 0x0p+00, Area: 0x1.5fdd49acf5beap-19, LinkArea: 0x1.5fdd49acf5beap-19, MaxHops: 1, AvgHops: 0x1p+00, AvgLatency: 0x1.6e80fe033c8c3p-31, Routers: 0, Links: 36, WireLength: 0x1.9f559b3d07c85p-04}, 36, 0, 0x1.e2839ac0d1a6dp+03},
	{"DVOPD", "45nm", false, noc.Metrics{LinkDynamic: 0x1.1bc4ede024454p-05, LinkLeakage: 0x1.1f02dd5195a38p-10, RouterPower: 0x1.087971ed137a9p-07, Area: 0x1.870195560bfb1p-18, LinkArea: 0x1.6e8b856200ae1p-18, MaxHops: 4, AvgHops: 0x1p+01, AvgLatency: 0x1.ca213d840bafbp-30, Routers: 34, Links: 72, WireLength: 0x1.9f559b3d07c85p-04}, 72, 34, 0x1.a7c476f5e48f6p+00},
	{"DVOPD", "45nm", true, noc.Metrics{LinkDynamic: 0x1.242b7fe4d0473p-06, LinkLeakage: 0x1.10a91f0d815bdp-12, RouterPower: 0x1.60a1ed3c19f8bp-09, Area: 0x1.402e0fd700ef4p-19, LinkArea: 0x1.2fdf5a89a4114p-19, MaxHops: 2, AvgHops: 0x1.5555555555555p+00, AvgLatency: 0x1.ab967dae714e7p-31, Routers: 12, Links: 48, WireLength: 0x1.9f559b3d07c86p-04}, 48, 12, 0x1.07f799a82d23ep+02},
	{"VPROC", "65nm", true, noc.Metrics{LinkDynamic: 0x1.3f719abd4888fp-05, LinkLeakage: 0x1.315867a02249ep-08, RouterPower: 0x1.21ef8d9a3058cp-09, Area: 0x1.1a1d637d2be5ap-18, LinkArea: 0x1.0b3aadcc15beep-18, MaxHops: 3, AvgHops: 0x1.3dcb08d3dcb09p+00, AvgLatency: 0x1.e03f17e0ee3c2p-31, Routers: 8, Links: 66, WireLength: 0x1.4fb09203a322dp-03}, 66, 8, 0x1.1f5cb98d673b4p+03},
}

// TestSynthesizeNoCPinned holds the synthesis bit for bit: its hop
// and merge budgets and its router model are constants, so every
// figure of every pinned network stays put.
func TestSynthesizeNoCPinned(t *testing.T) {
	for _, c := range nocPins {
		res, err := SynthesizeNoC(NoCRequest{Case: c.cs, Tech: c.tech, UseOriginalModel: c.original})
		if err != nil {
			t.Fatal(err)
		}
		if res.Metrics != c.metrics {
			t.Errorf("%s %s original=%v: metrics\n%x\nwant\n%x", c.cs, c.tech, c.original, res.Metrics, c.metrics)
		}
		if res.Links != c.links || res.Routers != c.routers || res.MaxLinkLengthMM != c.maxLenMM {
			t.Errorf("%s %s original=%v: %d links, %d routers, limit %x mm; want %d, %d, %x",
				c.cs, c.tech, c.original, res.Links, res.Routers, res.MaxLinkLengthMM, c.links, c.routers, c.maxLenMM)
		}
	}
}

// geometryPins are joint geometry × buffering designs on the default
// width and spacing grid, with every LinkResult field they reported.
var geometryPins = []struct {
	req  LinkRequest
	want LinkResult
}{
	{LinkRequest{Tech: "90nm", LengthMM: 10, OptimizeGeometry: true},
		LinkResult{Repeaters: 2, RepeaterSize: 0x1.4p+06, Delay: 0x1.15e412d4307a7p-31, OutputSlew: 0x1.57e059f643212p-31, DynamicPower: 0x1.0cc736efc9741p-03, LeakagePower: 0x1.cfdb417c18a16p-12, Area: 0x1.5afe2ec525eb5p-19, WireResistance: 0x1.3dbea0e79dd4ep+08, WireCapacitance: 0x1.86a62d3d908c2p-39, WidthMult: 0x1p+01, SpacingMult: 0x1.8p+01}},
	{LinkRequest{Tech: "45nm", LengthMM: 5, Style: Shielded, OptimizeGeometry: true},
		LinkResult{Repeaters: 1, RepeaterSize: 0x1.ep+06, Delay: 0x1.a8da0ab2fb64ap-32, OutputSlew: 0x1.1eb983bf6c2f2p-30, DynamicPower: 0x1.96521988ba0dap-04, LeakagePower: 0x1.7eae7c6cc7859p-16, Area: 0x1.a81d62ae4b522p-20, WireResistance: 0x1.94d78988c2a44p+08, WireCapacitance: 0x1.70b55a2791b09p-40, WidthMult: 0x1.8p+01, SpacingMult: 0x1.8p+01}},
}

// TestDesignLinkGeometryPinned holds the geometry search bit for bit
// on its default grid and repeater bound.
func TestDesignLinkGeometryPinned(t *testing.T) {
	for _, c := range geometryPins {
		got, err := DesignLinkCtx(context.Background(), c.req)
		if err != nil {
			t.Fatal(err)
		}
		if got != c.want {
			t.Errorf("%s %gmm %q: got\n%x\nwant\n%x", c.req.Tech, c.req.LengthMM, c.req.Style, got, c.want)
		}
	}
}
