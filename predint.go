package predint

import (
	"context"
	"fmt"
	"io"
	"math"

	"repro/internal/buffering"
	"repro/internal/liberty"
	"repro/internal/model"
	"repro/internal/noc"
	"repro/internal/sta"
	"repro/internal/tech"
	"repro/internal/wire"
	"repro/internal/wiresize"
)

// Style selects a bus design style for link requests.
type Style string

// Supported design styles.
const (
	// SWSS is single-width single-spacing with worst-case switching
	// neighbors.
	SWSS Style = "swss"
	// Shielded interleaves grounded shields between signal wires.
	Shielded Style = "shielded"
	// Staggered staggers repeaters to neutralize cross-talk (Miller
	// factor zero).
	Staggered Style = "staggered"
)

func (s Style) wireStyle() (wire.Style, error) {
	switch s {
	case "", SWSS:
		return wire.SWSS, nil
	case Shielded:
		return wire.Shielded, nil
	case Staggered:
		return wire.Staggered, nil
	default:
		return 0, fmt.Errorf("predint: unknown style %q", s)
	}
}

// Technologies returns the built-in technology names, largest node
// first: 90nm, 65nm, 45nm, 32nm, 22nm, 16nm.
func Technologies() []string { return tech.Names() }

// Default values applied to unset (nil) optional LinkRequest fields.
const (
	// DefaultBits is the bus width of the paper's designs.
	DefaultBits = 128
	// DefaultPowerWeight is the buffering objective's power emphasis.
	DefaultPowerWeight = 0.5
	// DefaultActivityFactor is the switching activity for power.
	DefaultActivityFactor = 0.15
	// DefaultInputSlewPS is the paper's input stimulus in picoseconds.
	DefaultInputSlewPS = 300.0
)

// Float wraps a value for LinkRequest's optional float fields:
// predint.Float(0) requests an explicit zero, which a plain zero
// value cannot (it means "use the default").
func Float(v float64) *float64 { return &v }

// Int wraps a value for LinkRequest's optional int fields.
func Int(v int) *int { return &v }

// LinkRequest describes a buffered global link to design.
//
// The optional numeric fields are pointers so the zero value of the
// struct keeps meaning "all defaults" while an explicit zero remains
// expressible: nil selects the documented default, predint.Float(0)
// (or predint.Int(0)) is honored as a literal zero. Earlier versions
// used plain floats and silently rewrote zeros to the defaults, which
// made an explicit zero impossible to request.
type LinkRequest struct {
	// Tech is a built-in technology name (required).
	Tech string `json:"tech"`
	// LengthMM is the routed link length in millimeters (required).
	LengthMM float64 `json:"length_mm"`
	// Bits is the bus width; nil means DefaultBits (128, the paper's
	// designs). An explicit non-positive width is an error, not a
	// request for the default.
	Bits *int `json:"bits,omitempty"`
	// Style selects the design style; default SWSS.
	Style Style `json:"style,omitempty"`
	// PowerWeight ∈ [0,1) sets the buffering objective's power
	// emphasis; nil means DefaultPowerWeight (0.5). An explicit
	// Float(0) is honored: it requests pure delay-optimal buffering.
	PowerWeight *float64 `json:"power_weight,omitempty"`
	// DelayOptimal forces pure delay-optimal buffering regardless of
	// PowerWeight.
	DelayOptimal bool `json:"delay_optimal,omitempty"`
	// LibrarySizesOnly restricts repeater candidates to the
	// characterized library drive strengths (D4–D20), so the result
	// can be re-evaluated with GoldenLinkDelay. By default the
	// optimizer may also pick the larger extrapolated sizes a
	// delay-optimal solution wants.
	LibrarySizesOnly bool `json:"library_sizes_only,omitempty"`
	// OptimizeGeometry additionally searches wire width and spacing
	// (up to MaxPitchMult × the minimum pitch) jointly with the
	// buffering — the Shi–Pan wire-sizing extension.
	OptimizeGeometry bool `json:"optimize_geometry,omitempty"`
	// MaxPitchMult bounds (width+spacing)/minimum-pitch when
	// OptimizeGeometry is set; default 3.
	MaxPitchMult float64 `json:"max_pitch_mult,omitempty"`
	// ActivityFactor is the switching activity for power; nil means
	// DefaultActivityFactor (0.15). An explicit Float(0) is honored:
	// the link reports zero dynamic power. Negative values are an
	// error.
	ActivityFactor *float64 `json:"activity_factor,omitempty"`
	// InputSlewPS is the input transition time in picoseconds; nil
	// means DefaultInputSlewPS (300, the paper's stimulus). An
	// explicit Float(0) is honored by rejecting the request with an
	// error — the timing models are only defined for a positive
	// stimulus — rather than silently substituting the default.
	InputSlewPS *float64 `json:"input_slew_ps,omitempty"`
}

// LinkResult is a designed link with the model's predictions.
type LinkResult struct {
	// Repeaters and RepeaterSize describe the buffering solution
	// (size in unit-inverter multiples).
	Repeaters    int     `json:"repeaters"`
	RepeaterSize float64 `json:"repeater_size"`
	// Delay is the predicted worst-edge delay (s).
	Delay float64 `json:"delay_s"`
	// OutputSlew is the predicted receiver slew (s).
	OutputSlew float64 `json:"output_slew_s"`
	// DynamicPower and LeakagePower are whole-bus powers (W).
	DynamicPower float64 `json:"dynamic_power_w"`
	LeakagePower float64 `json:"leakage_power_w"`
	// Area is the whole-bus silicon area (m²), wiring plus
	// repeaters.
	Area float64 `json:"area_m2"`
	// WireResistance and WireCapacitance are the per-bit totals
	// (Ω, F) including the nanometer corrections.
	WireResistance  float64 `json:"wire_resistance_ohm"`
	WireCapacitance float64 `json:"wire_capacitance_f"`
	// WidthMult and SpacingMult report the wire geometry (1 = layer
	// minimums; other values only when OptimizeGeometry was set).
	WidthMult   float64 `json:"width_mult"`
	SpacingMult float64 `json:"spacing_mult"`
}

// linkClass is a validated link class: a built-in technology with its
// embedded coefficients, the routed segment, the input slew (s) and the
// buffering objective's power weight. DesignLinkCtx and
// YieldRequest.plan both resolve one with resolveClass; a replica's plan
// memo and warm surface key their entries by its fields.
type linkClass struct {
	tc           *tech.Technology
	coeffs       *model.Coefficients
	seg          wire.Segment
	slew, weight float64
}

// resolveClass validates a request's link-class fields and derives the
// class; nil weight and slewPS select DefaultPowerWeight and
// DefaultInputSlewPS.
func resolveClass(techName string, lengthMM float64, style Style, weight, slewPS *float64) (linkClass, error) {
	tc, err := tech.Lookup(techName)
	if err != nil {
		return linkClass{}, err
	}
	if lengthMM <= 0 {
		return linkClass{}, fmt.Errorf("predint: non-positive length %g mm", lengthMM)
	}
	ws, err := style.wireStyle()
	if err != nil {
		return linkClass{}, err
	}
	w := DefaultPowerWeight
	if weight != nil {
		w = *weight
		if math.IsNaN(w) || w < 0 || w >= 1 {
			return linkClass{}, fmt.Errorf("predint: power weight %g outside [0,1)", w)
		}
	}
	ps := DefaultInputSlewPS
	if slewPS != nil {
		ps = *slewPS
		if math.IsNaN(ps) || ps <= 0 {
			return linkClass{}, fmt.Errorf("predint: non-positive input slew %g ps (the timing models need a positive stimulus; omit InputSlewPS for the %g ps default)", ps, DefaultInputSlewPS)
		}
	}
	coeffs, err := model.Default(tc.Name)
	if err != nil {
		return linkClass{}, err
	}
	return linkClass{tc: tc, coeffs: coeffs, seg: wire.NewSegment(tc, lengthMM*1e-3, ws), slew: ps * 1e-12, weight: w}, nil
}

// options is the class's buffering search at switching activity
// activity.
func (c *linkClass) options(activity float64) buffering.Options {
	return buffering.Options{
		Coeffs:      c.coeffs,
		InputSlew:   c.slew,
		Power:       model.PowerParams{Activity: activity, Freq: c.tc.Clock},
		PowerWeight: c.weight,
	}
}

// DesignLink designs a buffered link with the paper's calibrated
// predictive models and buffering optimizer.
func DesignLink(req LinkRequest) (LinkResult, error) {
	return DesignLinkCtx(context.Background(), req)
}

// DesignLinkCtx is DesignLink under a context. A plain buffering
// search is fast enough that only an up-front check applies, but with
// OptimizeGeometry the joint geometry × buffering sweep checks for
// cancellation at each candidate, so a deadline-bound caller gets
// ctx.Err() instead of waiting the sweep out. A design that completes
// under a live context is identical to DesignLink's.
func DesignLinkCtx(ctx context.Context, req LinkRequest) (LinkResult, error) {
	if err := ctx.Err(); err != nil {
		return LinkResult{}, err
	}
	c, err := resolveClass(req.Tech, req.LengthMM, req.Style, req.PowerWeight, req.InputSlewPS)
	if err != nil {
		return LinkResult{}, err
	}
	bits := DefaultBits
	if req.Bits != nil {
		bits = *req.Bits
		if bits <= 0 {
			return LinkResult{}, fmt.Errorf("predint: non-positive bus width %d", bits)
		}
	}
	activity := DefaultActivityFactor
	if req.ActivityFactor != nil {
		activity = *req.ActivityFactor
		if math.IsNaN(activity) || activity < 0 {
			return LinkResult{}, fmt.Errorf("predint: negative activity factor %g", activity)
		}
	}
	if req.DelayOptimal {
		c.weight = 0
	}

	seg := c.seg
	opts := c.options(activity)
	if req.LibrarySizesOnly {
		opts.Sizes = liberty.StandardSizes
	}
	widthMult, spacingMult := 1.0, 1.0
	var des buffering.Design
	if req.OptimizeGeometry {
		wsDes, err := wiresize.OptimizeCtx(ctx, c.tc, seg.Length, seg.Style, wiresize.Options{
			Buffering:    opts,
			MaxPitchMult: req.MaxPitchMult,
		})
		if err != nil {
			return LinkResult{}, err
		}
		des = wsDes.Buffer
		widthMult, spacingMult = wsDes.WidthMult, wsDes.SpacingMult
		seg.Width *= widthMult
		seg.Spacing *= spacingMult
	} else if des, err = buffering.Optimize(seg, opts); err != nil {
		return LinkResult{}, err
	}
	spec := model.LineSpec{Kind: des.Kind, Size: des.Size, N: des.N, Segment: seg, InputSlew: c.slew}
	pow, err := c.coeffs.LinePower(spec, opts.Power)
	if err != nil {
		return LinkResult{}, err
	}
	area, err := c.coeffs.LineArea(spec, bits)
	if err != nil {
		return LinkResult{}, err
	}
	return LinkResult{
		Repeaters:       des.N,
		RepeaterSize:    des.Size,
		Delay:           des.Delay,
		OutputSlew:      des.OutputSlew,
		DynamicPower:    pow.Dynamic * float64(bits),
		LeakagePower:    pow.Leakage * float64(bits),
		Area:            area.Total(),
		WireResistance:  seg.Resistance(),
		WireCapacitance: seg.TotalCap(),
		WidthMult:       widthMult,
		SpacingMult:     spacingMult,
	}, nil
}

// GoldenLinkDelay evaluates a specific buffered-line implementation
// with the golden sign-off timing engine (NLDM cells + transient RC
// interconnect analysis), driven by the given input slew in
// picoseconds — pass the same stimulus the link was designed with
// (DefaultInputSlewPS when the LinkRequest left InputSlewPS unset) so
// the golden re-evaluation matches the predictive path; earlier
// versions hardcoded 300 ps regardless of the request. The slew must
// be positive: the transient engine cannot drive a zero-time ramp.
// GoldenLinkDelay characterizes the technology's cell library on
// first use, which takes a few seconds per node.
func GoldenLinkDelay(techName string, repeaterSize float64, repeaters int, lengthMM float64, style Style, inputSlewPS float64) (float64, error) {
	tc, err := tech.Lookup(techName)
	if err != nil {
		return 0, err
	}
	ws, err := style.wireStyle()
	if err != nil {
		return 0, err
	}
	if math.IsNaN(inputSlewPS) || inputSlewPS <= 0 {
		return 0, fmt.Errorf("predint: non-positive input slew %g ps", inputSlewPS)
	}
	lib, err := liberty.Get(tc)
	if err != nil {
		return 0, err
	}
	cell := lib.Cell(fmt.Sprintf("INVD%g", repeaterSize))
	if cell == nil {
		return 0, fmt.Errorf("predint: no characterized cell of size %g (library sizes: %v)", repeaterSize, liberty.StandardSizes)
	}
	line := &sta.Line{Cell: cell, N: repeaters, Segment: wire.NewSegment(tc, lengthMM*1e-3, ws), InputSlew: inputSlewPS * 1e-12}
	res, err := line.Analyze()
	if err != nil {
		return 0, err
	}
	return res.Delay, nil
}

// Coefficients is the calibrated model coefficient set (the paper's
// Table I for one technology). Obtain one from EmbeddedCoefficients or
// CalibrateFromLibrary; treat it as opaque and pass it back into this
// package.
type Coefficients = model.Coefficients

// EmbeddedCoefficients returns the pre-calibrated (shipped) Table I
// coefficients for a built-in technology.
func EmbeddedCoefficients(techName string) (*Coefficients, error) {
	return model.Default(techName)
}

// ExportLibrary characterizes a built-in technology's repeater library
// (memoized) and writes it in Liberty text format — the artifact the
// paper's flow consumes from foundries.
func ExportLibrary(techName string, w io.Writer) error {
	tc, err := tech.Lookup(techName)
	if err != nil {
		return err
	}
	lib, err := liberty.Get(tc)
	if err != nil {
		return err
	}
	return liberty.WriteLibrary(w, lib)
}

// CalibrateFromLibrary reads a Liberty text file (as produced by
// ExportLibrary, or a compatible subset) and fits the model
// coefficients against it — calibration against an externally
// supplied library, with no simulation involved.
func CalibrateFromLibrary(r io.Reader) (*Coefficients, error) {
	lib, err := liberty.ParseLibrary(r)
	if err != nil {
		return nil, err
	}
	coeffs, _, err := model.Calibrate(lib)
	return coeffs, err
}

// CrosstalkRequest configures an explicit coupled-line study.
type CrosstalkRequest struct {
	// Tech is a technology name.
	Tech string
	// LengthMM is the victim length in millimeters.
	LengthMM float64
	// SpacingMult scales the neighbor spacing (1 = minimum).
	SpacingMult float64
	// Aggressors selects the neighbors' activity: "opposite"
	// (worst case), "same", or "quiet" (default).
	Aggressors string
}

// CrosstalkResult reports a coupled-line study.
type CrosstalkResult struct {
	// Delay is the victim's simulated 50% delay (s).
	Delay float64
	// OutputSlew is the victim's far-end slew (s).
	OutputSlew float64
	// EffectiveMiller is the empirical Miller factor: the k for
	// which an uncoupled line with c_g + k·c_c matches this delay.
	// The paper's model uses λ = 1.51; sign-off uses 2.0.
	EffectiveMiller float64
}

// Crosstalk runs a full coupled three-line transient simulation (the
// victim with two aggressors) — the physics underneath the Miller
// abstractions the models use.
func Crosstalk(req CrosstalkRequest) (CrosstalkResult, error) {
	tc, err := tech.Lookup(req.Tech)
	if err != nil {
		return CrosstalkResult{}, err
	}
	if req.LengthMM <= 0 {
		return CrosstalkResult{}, fmt.Errorf("predint: non-positive length")
	}
	mode := sta.Quiet
	switch req.Aggressors {
	case "", "quiet":
	case "opposite":
		mode = sta.Opposite
	case "same":
		mode = sta.Same
	default:
		return CrosstalkResult{}, fmt.Errorf("predint: unknown aggressor mode %q", req.Aggressors)
	}
	seg := wire.NewSegment(tc, req.LengthMM*1e-3, wire.SWSS)
	if req.SpacingMult > 0 {
		seg.Spacing *= req.SpacingMult
	}
	cfg := sta.CoupledConfig{
		Seg:     seg,
		DriverR: 200,
		LoadC:   10e-15,
		InSlew:  100e-12,
		Mode:    mode,
	}
	d, s, err := sta.SimulateCoupled(cfg)
	if err != nil {
		return CrosstalkResult{}, err
	}
	k, err := sta.EffectiveMiller(cfg)
	if err != nil {
		return CrosstalkResult{}, err
	}
	return CrosstalkResult{Delay: d, OutputSlew: s, EffectiveMiller: k}, nil
}

// NoCRequest describes a NoC synthesis run.
type NoCRequest struct {
	// Case is a built-in test case name: "VPROC" or "DVOPD".
	Case string `json:"case"`
	// Tech is a built-in technology name.
	Tech string `json:"tech"`
	// UseOriginalModel selects the uncalibrated Bakoglu-based cost
	// model instead of the proposed one (Table III's comparison).
	UseOriginalModel bool `json:"use_original_model,omitempty"`
	// Style selects the bus design style; default SWSS.
	Style Style `json:"style,omitempty"`
	// Workers bounds the goroutines the synthesizer's merge-candidate
	// evaluation uses: 0 means every core, 1 forces the serial
	// algorithm. The synthesized network is identical either way.
	Workers int `json:"workers,omitempty"`
}

// NoCResult reports a synthesized network.
type NoCResult struct {
	// Metrics are the tool-reported power/area/hop figures.
	Metrics noc.Metrics
	// Links and Routers count topology elements (also in Metrics).
	Links, Routers int
	// MaxLinkLengthMM is the model's wire-length feasibility limit.
	MaxLinkLengthMM float64
}

// SynthesizeNoC runs the COSI-style synthesis for a built-in test
// case.
func SynthesizeNoC(req NoCRequest) (NoCResult, error) {
	return SynthesizeNoCCtx(context.Background(), req)
}

// SynthesizeNoCCtx is SynthesizeNoC under a context: cancellation is
// cooperative (checked between flows and candidate batches inside the
// synthesizer), returns ctx.Err() promptly, and never poisons the
// underlying design caches — see noc.SynthesizeCtx. A run completing
// under a live context is bit-identical to SynthesizeNoC.
func SynthesizeNoCCtx(ctx context.Context, req NoCRequest) (NoCResult, error) {
	tc, err := tech.Lookup(req.Tech)
	if err != nil {
		return NoCResult{}, err
	}
	style, err := req.Style.wireStyle()
	if err != nil {
		return NoCResult{}, err
	}
	spec, err := noc.SpecByName(req.Case)
	if err != nil {
		return NoCResult{}, err
	}
	var lm noc.LinkModel
	if req.UseOriginalModel {
		lm, err = noc.NewOriginalModel(tc, spec.DataWidth, style)
	} else {
		lm, err = noc.NewProposedModel(tc, spec.DataWidth, style)
	}
	if err != nil {
		return NoCResult{}, err
	}
	net, err := noc.SynthesizeCtx(ctx, spec, lm, noc.SynthOptions{Workers: req.Workers})
	if err != nil {
		return NoCResult{}, err
	}
	m := net.Evaluate()
	return NoCResult{
		Metrics:         m,
		Links:           m.Links,
		Routers:         m.Routers,
		MaxLinkLengthMM: lm.MaxLength() * 1e3,
	}, nil
}
