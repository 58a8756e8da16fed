package noc

import (
	"fmt"

	"repro/internal/baseline"
	"repro/internal/buffering"
	"repro/internal/model"
	"repro/internal/tech"
	"repro/internal/wire"
)

// signalActivity is the toggle probability of a bus bit during an
// occupied cycle; link dynamic power scales as utilization ×
// signalActivity.
const signalActivity = 0.5

// timingMargin is the fraction of the clock period a link's wire
// delay may consume (the remainder covers router clock-to-q and setup).
const timingMargin = 0.8

// LinkDesign is a feasible buffered-bus implementation of one link.
type LinkDesign struct {
	// Length is the routed (Manhattan) length in meters.
	Length float64
	// Layer records the routing layer ("global" or "intermediate"):
	// links are assigned to the lowest layer that meets timing, as a
	// physical-design flow would, keeping global tracks for the
	// links that need them.
	Layer string
	// Delay is the per-traversal wire delay (s) as estimated by the
	// producing model.
	Delay float64
	// DynFull is the dynamic power (W) of the whole bus at 100%
	// utilization.
	DynFull float64
	// Leakage is the bus repeater leakage (W), utilization-
	// independent.
	Leakage float64
	// Area is the silicon area (m²): wiring plus repeaters.
	Area float64
	// N and Size record the buffering solution.
	N    int
	Size float64
}

// DynAt returns the dynamic power at the given utilization ∈ [0,1].
func (d LinkDesign) DynAt(util float64) float64 {
	if util < 0 {
		util = 0
	}
	if util > 1 {
		util = 1
	}
	return util * d.DynFull
}

// LinkModel designs and costs buffered links; implementations embody
// the "original" and "proposed" interconnect models of Table III.
//
// Implementations must be safe for concurrent Design/MaxLength/Tech
// calls after construction: the synthesizer fans candidate
// evaluations out across a worker pool and DesignCache shares one
// instance between goroutines. Every implementation in this package
// (ProposedModel, OriginalModel, ScaledModel, DesignCache) satisfies
// this — their state is immutable once built.
type LinkModel interface {
	// Name identifies the model in reports.
	Name() string
	// Tech returns the underlying technology.
	Tech() *tech.Technology
	// Design produces a buffered-link implementation for the given
	// routed length, or an error if no feasible design meets the
	// clock constraint.
	Design(length float64) (LinkDesign, error)
	// MaxLength returns the longest link length (m) the model deems
	// feasible at the node's clock — the wire-length constraint the
	// synthesis algorithm enforces.
	MaxLength() float64
}

// maxLengthSearch binary-searches the feasibility frontier shared by
// both implementations.
func maxLengthSearch(design func(float64) (LinkDesign, error), lo, hi float64) float64 {
	// Grow hi until infeasible (or absurd).
	for hi < 1 { // 1 meter: unreachable in practice
		if _, err := design(hi); err != nil {
			break
		}
		hi *= 2
	}
	for i := 0; i < 40; i++ {
		mid := (lo + hi) / 2
		if _, err := design(mid); err == nil {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// ProposedModel implements LinkModel with the paper's calibrated
// predictive models and the weighted delay–power buffering optimizer.
type ProposedModel struct {
	tc     *tech.Technology
	coeffs *model.Coefficients
	style  wire.Style
	bits   int
	// powerWeight is the buffering objective's power emphasis.
	powerWeight float64
	maxLen      float64
}

// NewProposedModel builds the proposed-model link designer for a
// technology, using the embedded Table I coefficients.
func NewProposedModel(tc *tech.Technology, bits int, style wire.Style) (*ProposedModel, error) {
	coeffs, err := model.Default(tc.Name)
	if err != nil {
		return nil, err
	}
	if bits < 1 {
		return nil, fmt.Errorf("noc: bad link width %d", bits)
	}
	m := &ProposedModel{tc: tc, coeffs: coeffs, style: style, bits: bits, powerWeight: 0.5}
	m.maxLen = maxLengthSearch(m.design, 10e-6, 2e-3)
	return m, nil
}

// Name implements LinkModel.
func (m *ProposedModel) Name() string { return "proposed" }

// Tech implements LinkModel.
func (m *ProposedModel) Tech() *tech.Technology { return m.tc }

// MaxLength implements LinkModel.
func (m *ProposedModel) MaxLength() float64 { return m.maxLen }

// Design implements LinkModel.
func (m *ProposedModel) Design(length float64) (LinkDesign, error) { return m.design(length) }

// DesignGlobal designs the link on the global layer regardless of the
// usual lowest-layer-first assignment — for wrappers (ScaledModel)
// whose tighter budgets invalidate an intermediate-layer choice.
func (m *ProposedModel) DesignGlobal(length float64) (LinkDesign, error) {
	return m.designOn(m.tc.Global, "global", length)
}

func (m *ProposedModel) design(length float64) (LinkDesign, error) {
	if length <= 0 {
		return LinkDesign{}, fmt.Errorf("noc: non-positive link length %g", length)
	}
	// Layer assignment: lowest layer that meets timing.
	if d, err := m.designOn(m.tc.Intermediate, "intermediate", length); err == nil {
		return d, nil
	}
	return m.designOn(m.tc.Global, "global", length)
}

func (m *ProposedModel) designOn(layer tech.WireLayer, layerName string, length float64) (LinkDesign, error) {
	seg := wire.NewSegmentOn(m.tc, layer, length, m.style)
	opt := buffering.Options{
		Coeffs:      m.coeffs,
		Power:       model.PowerParams{Activity: signalActivity, Freq: m.tc.Clock},
		PowerWeight: m.powerWeight,
	}
	des, err := buffering.Optimize(seg, opt)
	if err != nil {
		return LinkDesign{}, err
	}
	budget := timingMargin / m.tc.Clock
	if des.Delay > budget {
		// The power-weighted design missed timing; fall back to pure
		// delay-optimal buffering before declaring the length
		// infeasible.
		des, err = buffering.DelayOptimal(seg, opt)
		if err != nil {
			return LinkDesign{}, err
		}
		if des.Delay > budget {
			return LinkDesign{}, fmt.Errorf("noc: %gmm link delay %.0fps exceeds budget %.0fps", length*1e3, des.Delay*1e12, budget*1e12)
		}
	}
	spec := model.LineSpec{Kind: des.Kind, Size: des.Size, N: des.N, Segment: seg, InputSlew: 300e-12}
	pow, err := m.coeffs.LinePower(spec, model.PowerParams{Activity: signalActivity, Freq: m.tc.Clock})
	if err != nil {
		return LinkDesign{}, err
	}
	area, err := m.coeffs.LineArea(spec, m.bits)
	if err != nil {
		return LinkDesign{}, err
	}
	return LinkDesign{
		Length:  length,
		Layer:   layerName,
		Delay:   des.Delay,
		DynFull: pow.Dynamic * float64(m.bits),
		Leakage: pow.Leakage * float64(m.bits),
		Area:    area.Total(),
		N:       des.N,
		Size:    des.Size,
	}, nil
}

// OriginalModel implements LinkModel with the original COSI-OCC cost
// model: Bakoglu delay with uncalibrated device parameters, no
// coupling and classic wire resistance; the minimum buffering that
// delay says meets the clock; and the simplistic area assumptions.
type OriginalModel struct {
	tc     *tech.Technology
	style  wire.Style
	bits   int
	maxLen float64
}

// NewOriginalModel builds the original-model link designer.
func NewOriginalModel(tc *tech.Technology, bits int, style wire.Style) (*OriginalModel, error) {
	if bits < 1 {
		return nil, fmt.Errorf("noc: bad link width %d", bits)
	}
	m := &OriginalModel{tc: tc, style: style, bits: bits}
	m.maxLen = maxLengthSearch(m.design, 10e-6, 2e-3)
	return m, nil
}

// Name implements LinkModel.
func (m *OriginalModel) Name() string { return "original" }

// Tech implements LinkModel.
func (m *OriginalModel) Tech() *tech.Technology { return m.tc }

// MaxLength implements LinkModel.
func (m *OriginalModel) MaxLength() float64 { return m.maxLen }

// Design implements LinkModel.
func (m *OriginalModel) Design(length float64) (LinkDesign, error) { return m.design(length) }

// DesignGlobal designs the link on the global layer regardless of the
// usual lowest-layer-first assignment.
func (m *OriginalModel) DesignGlobal(length float64) (LinkDesign, error) {
	return m.designOn(m.tc.Global, "global", length)
}

func (m *OriginalModel) design(length float64) (LinkDesign, error) {
	if length <= 0 {
		return LinkDesign{}, fmt.Errorf("noc: non-positive link length %g", length)
	}
	if d, err := m.designOn(m.tc.Intermediate, "intermediate", length); err == nil {
		return d, nil
	}
	return m.designOn(m.tc.Global, "global", length)
}

func (m *OriginalModel) designOn(layer tech.WireLayer, layerName string, length float64) (LinkDesign, error) {
	seg := wire.NewSegmentOn(m.tc, layer, length, m.style)
	budget := timingMargin / m.tc.Clock

	// The original flow inserts the *minimum* buffering its
	// (optimistic) delay model says meets the clock constraint —
	// the paper's "number and size of the repeaters that are
	// optimistically estimated by the original model". Smallest
	// repeater count first, then smallest size.
	var (
		spec  baseline.LineSpec
		delay float64
		found bool
	)
search:
	for n := 1; n <= 64; n++ {
		for _, size := range []float64{4, 6, 8, 12, 16, 20, 30, 40} {
			cand := baseline.LineSpec{Size: size, N: n, Segment: seg}
			d, err := baseline.LineDelay(baseline.Bakoglu, cand)
			if err != nil {
				return LinkDesign{}, err
			}
			if d <= budget {
				spec, delay, found = cand, d, true
				break search
			}
		}
	}
	if !found {
		return LinkDesign{}, fmt.Errorf("noc: %gmm link cannot meet budget %.0fps under original model", length*1e3, budget*1e12)
	}
	n, size := spec.N, spec.Size
	dyn, leak, err := baseline.LinePower(baseline.Bakoglu, spec, signalActivity, m.tc.Clock)
	if err != nil {
		return LinkDesign{}, err
	}
	area, err := baseline.LineArea(spec, m.bits)
	if err != nil {
		return LinkDesign{}, err
	}
	return LinkDesign{
		Length:  length,
		Layer:   layerName,
		Delay:   delay,
		DynFull: dyn * float64(m.bits),
		Leakage: leak * float64(m.bits),
		Area:    area,
		N:       n,
		Size:    size,
	}, nil
}

// statically assert interface satisfaction.
var (
	_ LinkModel = (*ProposedModel)(nil)
	_ LinkModel = (*OriginalModel)(nil)
)
