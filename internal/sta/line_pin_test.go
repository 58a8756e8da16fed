package sta

import (
	"testing"

	"repro/internal/liberty"
	"repro/internal/tech"
	"repro/internal/wire"
)

// linePins are Table II lines at 90 nm and 45 nm, 1 mm and 10 mm,
// SWSS and shielded, each with the INVD20 repeater count Table II's
// buffering picks, and the delay and per-stage output slews
// Line.Analyze gave them.
var linePins = []struct {
	tech  string
	mm    float64
	style wire.Style
	n     int
	delay float64
	slews []float64
}{
	{"90nm", 1, wire.SWSS, 1, 0x1.5a542c6cb2e5fp-33, []float64{
		0x1.a52b3d57ffaeep-33,
	}},
	{"90nm", 10, wire.SWSS, 5, 0x1.66b3c9ba2f6e8p-30, []float64{
		0x1.567ea14c2cfa8p-32, 0x1.4b863071018b4p-32, 0x1.56d893d463eb2p-32,
		0x1.4b99ffdc8f466p-32, 0x1.56dcc523d6f62p-32,
	}},
	{"90nm", 1, wire.Shielded, 1, 0x1.21b469c3d74adp-33, []float64{
		0x1.6438827c75dabp-33,
	}},
	{"90nm", 10, wire.Shielded, 4, 0x1.15f8dfa55f679p-30, []float64{
		0x1.491ef2ceeabd8p-32, 0x1.3dee927d5ebacp-32, 0x1.47058c8d07054p-32,
		0x1.3d8953fcaa915p-32,
	}},
	{"45nm", 1, wire.SWSS, 1, 0x1.2b3f395ae39b6p-32, []float64{
		0x1.44aa206d4c488p-32,
	}},
	{"45nm", 10, wire.SWSS, 10, 0x1.694da978acf06p-29, []float64{
		0x1.44aa206d4c488p-32, 0x1.33118bad0868dp-32, 0x1.4147be065ab3cp-32,
		0x1.32856fab7a8dep-32, 0x1.4132f94016422p-32, 0x1.3282197b5e7f1p-32,
		0x1.41327a4320478p-32, 0x1.32820511f792ap-32, 0x1.4132773a3c63cp-32,
		0x1.3282049517251p-32,
	}},
	{"45nm", 1, wire.Shielded, 1, 0x1.e4b2238ee211bp-33, []float64{
		0x1.f8e119a3d2d52p-33,
	}},
	{"45nm", 10, wire.Shielded, 8, 0x1.136dba4b1f0bdp-29, []float64{
		0x1.326de4770c51bp-32, 0x1.21202d2ec8721p-32, 0x1.2c4a5813828cep-32,
		0x1.202116d9cd376p-32, 0x1.2c23bd1912241p-32, 0x1.201ad3074fa42p-32,
		0x1.2c22c90f21214p-32, 0x1.201aab63c940fp-32,
	}},
}

// TestLineAnalyzePinned holds the golden engine's answers bit for bit:
// the delay and every stage's output slew of each pinned line.
func TestLineAnalyzePinned(t *testing.T) {
	for _, c := range linePins {
		tc := tech.MustLookup(c.tech)
		lib, err := liberty.Get(tc)
		if err != nil {
			t.Fatal(err)
		}
		line := &Line{Cell: lib.Cell("INVD20"), N: c.n, Segment: wire.NewSegment(tc, c.mm*1e-3, c.style), InputSlew: 300e-12}
		res, err := line.Analyze()
		if err != nil {
			t.Fatal(err)
		}
		if res.Delay != c.delay {
			t.Errorf("%s %gmm %v: delay %x, want %x", c.tech, c.mm, c.style, res.Delay, c.delay)
		}
		if len(res.Stages) != len(c.slews) {
			t.Fatalf("%s %gmm %v: %d stages, want %d", c.tech, c.mm, c.style, len(res.Stages), len(c.slews))
		}
		for i, s := range res.Stages {
			if s.OutSlew != c.slews[i] {
				t.Errorf("%s %gmm %v stage %d: slew %x, want %x", c.tech, c.mm, c.style, i, s.OutSlew, c.slews[i])
			}
		}
	}
}
