package variation

import (
	"math"
	"runtime"
	"sync"

	"repro/internal/estimator"
	"repro/internal/liberty"
	"repro/internal/model"
	"repro/internal/tech"
	"repro/internal/wire"
)

// This file is the structure-of-arrays batch-lane sampling kernel, the
// one evaluation path of the mc/isle/qmc/ais sampling driver
// (multi.go): it scores a lane of up to laneSize samples per call over
// contiguous float64 slices. The scalar evaluator,
// LinkScenario.DelayScratch, walks one sample at a time through
// Space.ApplyInto → Coefficients.ScaleInto → perturbSegment →
// LineDelay, copying a full Technology and Coefficients per sample and
// re-deriving quantities the delay never reads (leakage exponentials,
// the unused repeater kind, the unused routing layers). The lane kernel
// compiles everything sample-invariant once per run — the per-space
// apply program, the nominal drive resistances, the per-candidate stage
// constants — and then runs flat loops over the lane arrays: draw,
// apply, rescale, extract, score.
//
// Bit-identity contract: for every sample and candidate the lane kernel
// evaluates exactly the floating-point expressions of DelayScratch on
// the same draw, with the same operand values in the same association
// order, so each delay, and hence each contribution, is bit-identical
// to it. Quantities the scalar evaluator computes but the delay
// comparison never consumes are skipped — skipping arithmetic whose
// result is unused cannot change the bits of what remains. Lane
// partitioning itself cannot affect results either: contributions are
// folded by the caller in sample-index order regardless of which lane
// (or worker) produced them, which also means the lane width may adapt
// to the worker count freely.
//
// The one per-sample branch of the scalar evaluator that the lane
// cannot precompute is LineSpec.Validate's perturbed-width check (a
// shrunken line loses its copper core when its width falls to
// 2·barrier). The lane checks every width it extracts and raises the
// error wire.Segment.Validate gives for the lowest such sample and,
// within it, the lowest active candidate: the error the scalar
// evaluator meets first when it walks the samples in index order and
// each sample's candidates in order.

const (
	// laneSize is the maximum samples one lane evaluates per call —
	// large enough to amortize per-task pool overhead (the per-item
	// claim + panic guard that made per-sample dispatch slower in
	// parallel than serial), small enough that per-worker scratch
	// stays cache-resident.
	laneSize = 64
	// laneMin is the floor when shrinking lanes to feed many workers.
	laneMin = 16
)

// laneChunk picks the lane width for a batch: full lanes when serial,
// shrunk (but never below laneMin) so a batch splits across the worker
// budget when parallel. Purely a scheduling choice — lane width never
// affects results.
func laneChunk(batch, workers int) int {
	c := laneSize
	if workers > 1 {
		if per := (batch + workers - 1) / workers; per < c {
			c = per
		}
		if c < laneMin {
			c = laneMin
		}
	}
	if c > batch {
		c = batch
	}
	if c < 1 {
		c = 1
	}
	return c
}

// Factor-array indices of the apply program's outputs, mirroring the
// order Space.ApplyInto derives them.
const (
	facVthN = iota
	facVthP
	facL
	facW
	facT
	facILD
	facRho
	facCount
)

type laneOpCode uint8

const (
	// opConst fills the destination with a constant (an inert
	// zero-sigma dimension, hoisted out of the per-sample path).
	opConst laneOpCode = iota
	// opVth computes a clamped absolute threshold perturbation.
	opVth
	// opRelFactor computes a clamped relative factor 1 + sigma·z.
	opRelFactor
)

// laneOp is one step of the compiled apply program.
type laneOp struct {
	code  laneOpCode
	dst   uint8 // factor-array index
	dim   uint8 // z dimension read (opVth/opRelFactor)
	sigma float64
	base  float64 // opVth: nominal Vth; opConst: the constant
}

// applyProg is the precompiled per-space apply program: a flat op list
// derived once from (Space, base technology) and executed branch-free
// per lane. It hoists the per-sample branching of Space.ApplyInto —
// which sigmas are zero, what the Vth clamp bounds are — into compile
// time.
type applyProg struct {
	ops    [facCount]laneOp
	vthMax float64 // Vdd − 0.05, the upper Vth clamp
}

// compileApplyProg builds the apply program for one space over one
// base technology.
func compileApplyProg(sp Space, base *tech.Technology) applyProg {
	p := applyProg{vthMax: base.Vdd - 0.05}
	clampVth := func(v float64) float64 {
		if v < 0.05 {
			v = 0.05
		}
		if v > p.vthMax {
			v = p.vthMax
		}
		return v
	}
	vth := func(dst, dim uint8, base float64) laneOp {
		if sp.VthSigma == 0 {
			return laneOp{code: opConst, dst: dst, base: clampVth(base)}
		}
		return laneOp{code: opVth, dst: dst, dim: dim, sigma: sp.VthSigma, base: base}
	}
	rel := func(dst, dim uint8, sigma float64) laneOp {
		if sigma == 0 {
			return laneOp{code: opConst, dst: dst, base: 1}
		}
		return laneOp{code: opRelFactor, dst: dst, dim: dim, sigma: sigma}
	}
	p.ops[0] = vth(facVthN, dimVthN, base.NMOS.Vth)
	p.ops[1] = vth(facVthP, dimVthP, base.PMOS.Vth)
	p.ops[2] = rel(facL, dimLength, sp.LengthSigma)
	p.ops[3] = rel(facW, dimWireWidth, sp.WireWidthSigma)
	p.ops[4] = rel(facT, dimWireThickness, sp.WireThicknessSigma)
	p.ops[5] = rel(facILD, dimILD, sp.ILDSigma)
	p.ops[6] = rel(facRho, dimRho, sp.RhoSigma)
	return p
}

// run executes the program over the first n entries of the z arrays.
func (p *applyProg) run(z *[Dims][]float64, fac *[facCount][]float64, n int) {
	for o := range p.ops {
		op := &p.ops[o]
		dst := fac[op.dst][:n]
		switch op.code {
		case opConst:
			v := op.base
			for k := range dst {
				dst[k] = v
			}
		case opVth:
			zz := z[op.dim][:n]
			sg, b, hi := op.sigma, op.base, p.vthMax
			for k := range dst {
				v := b + sg*zz[k]
				if v < 0.05 {
					v = 0.05
				}
				if v > hi {
					v = hi
				}
				dst[k] = v
			}
		case opRelFactor:
			zz := z[op.dim][:n]
			sg := op.sigma
			for k := range dst {
				f := 1 + sg*zz[k]
				if f < 0.6 {
					f = 0.6
				}
				if f > 1.4 {
					f = 1.4
				}
				dst[k] = f
			}
		}
	}
}

// laneScale holds the sample-invariant half of ScaleInto: the nominal
// drive resistances (the rNom of model.driveRatio, computed once
// instead of once per sample) and the nominal gate-capacitance sum.
type laneScale struct {
	vdd            float64
	kN, kP         float64
	alphaN, alphaP float64
	powN, powP     lanePow // od^alphaN, od^alphaP
	rNomN, rNomP   float64
	odNPos, odPPos bool
	cgN, cgP       float64
	cgSum          float64
	cgPos          bool
}

func laneScaleFor(base *tech.Technology) laneScale {
	sc := laneScale{
		vdd:    base.Vdd,
		kN:     base.NMOS.K,
		kP:     base.PMOS.K,
		alphaN: base.NMOS.Alpha,
		alphaP: base.PMOS.Alpha,
		cgN:    base.NMOS.CGate,
		cgP:    base.PMOS.CGate,
	}
	// The exact expression of model.driveRatio's rNom, evaluated once:
	// the per-sample ratio divides by the identical value.
	if od := sc.vdd - base.NMOS.Vth; od > 0 {
		sc.odNPos = true
		sc.rNomN = sc.vdd / (sc.kN * math.Pow(od, sc.alphaN))
	}
	if od := sc.vdd - base.PMOS.Vth; od > 0 {
		sc.odPPos = true
		sc.rNomP = sc.vdd / (sc.kP * math.Pow(od, sc.alphaP))
	}
	sc.powN, sc.powP = newLanePow(sc.alphaN), newLanePow(sc.alphaP)
	sc.cgSum = sc.cgN + sc.cgP
	sc.cgPos = sc.cgSum > 0
	return sc
}

// lanePow is x^y for one constant exponent y, bit-identical to
// math.Pow(x, y) and decomposed once per run instead of once per call.
// Go's pow splits y with Modf into an integer part yi and a fraction yf,
// moves a fraction above one half to yf−1 (and yi+1), and returns
// Exp(yf·Log x) times x^yi, applying x^yi to x's mantissa and restoring
// the exponent with Ldexp. For a positive normal x whose powers stay
// normal that power-of-two scaling is exact, so Exp(yf·Log x)·x^yi, with
// x^yi = 1, x or x·x, rounds to pow's bits while skipping its special
// cases, Modf, Frexp and Ldexp. applyProg's clamps keep every operand
// the kernel raises (the Vth overdrive, the thickness/ILD ratio) inside
// the short form's range; anything else takes math.Pow.
type lanePow struct {
	y, yf float64
	yi    int
	short bool // y takes the short form for operands in [powMin, powMax]
}

// powMin and powMax bound the short form's operands: positive normal
// with room to spare, so x·x, Exp(yf·Log x) and their product all stay
// normal for yi ≤ 2 and |yf| ≤ 1/2.
const (
	powMin = 0x1p-256
	powMax = 0x1p256
)

func newLanePow(y float64) lanePow {
	p := lanePow{y: y}
	// The short form covers finite y > 0 but 0.5, which pow answers
	// with Sqrt. s390x's math.Pow is an assembly routine of its own.
	if !(y > 0) || y == 0.5 || math.IsInf(y, 1) || runtime.GOARCH == "s390x" {
		return p
	}
	yi, yf := math.Modf(y)
	if yf > 0.5 {
		yf--
		yi++
	}
	if yi > 2 {
		return p
	}
	p.yi, p.yf, p.short = int(yi), yf, true
	return p
}

// powLane sets out[k] = math.Pow(x[k], p.y) for every k of a lane. It
// runs the short form in three passes over the lane — every Log, then
// every Exp, then the ×x^yi step, with math.Pow for each operand
// outside [powMin, powMax] — so the lane's independent samples overlap
// instead of each waiting on its own Log→Exp chain. A fallback
// operand's Log and Exp are computed and discarded. out must not alias
// x.
func (p *lanePow) powLane(x, out []float64) {
	out = out[:len(x)]
	if !p.short {
		for k, v := range x {
			out[k] = math.Pow(v, p.y)
		}
		return
	}
	if p.yf != 0 {
		for k, v := range x {
			out[k] = p.yf * math.Log(v)
		}
		for k, v := range out {
			out[k] = math.Exp(v)
		}
	} else {
		for k := range out {
			out[k] = 1
		}
	}
	for k, v := range x {
		switch {
		case !(v >= powMin && v <= powMax):
			out[k] = math.Pow(v, p.y)
		case p.yi == 1:
			out[k] *= v
		case p.yi == 2:
			out[k] *= v * v
		}
	}
}

// laneSeg holds one segment geometry's sample-invariant constants for
// the wire-extraction phase (perturbSegment + model.SegmentRC fused).
type laneSeg struct {
	w0, sp0, th0, ild0 float64
	minSp              float64 // 0.25·sp0, the clampSpacing floor
	twoEps, c12eps     float64 // 2ε and 1.2ε of the layer dielectric
	shielded           bool
}

func laneSegFor(seg wire.Segment) laneSeg {
	eps := tech.Eps0 * seg.Layer.EpsRel
	return laneSeg{
		w0:       seg.Width,
		sp0:      seg.Spacing,
		th0:      seg.Layer.Thickness,
		ild0:     seg.Layer.ILD,
		minSp:    0.25 * seg.Spacing,
		twoEps:   2 * eps,
		c12eps:   1.2 * eps,
		shielded: seg.Style == wire.Shielded,
	}
}

// laneCand holds one candidate's sample-invariant constants: the
// repeater widths (unperturbed technology fields), stage length,
// Miller coefficient, and the unscaled coefficients of the repeater
// kind the candidate actually uses — the lane scales only those,
// skipping the other kind and the leakage/area terms the delay never
// reads.
type laneCand struct {
	wn, wp, wnwp float64
	stageLen     float64
	lambdaHalf   float64
	stages       int
	inverter     bool
	kappa0       float64
	rise, fall   model.EdgeCoeffs
	inputSlew    float64
	staggered    bool
}

// laneKernel is the compiled per-run state of the lane path: the apply
// program plus every per-scenario constant, shared read-only by all
// workers.
type laneKernel struct {
	ms        *MultiScenario
	prog      applyProg
	scale     laneScale
	segs      []laneSeg
	cands     []laneCand
	sharedSeg bool
	target    float64
	// seedHash is mix64(Seed+γ) of the run's seed, the seed half of
	// every sample's stream state (see Stream.Reset), hashed once per
	// run.
	seedHash uint64

	// Tech-level wire constants (identical for every segment).
	bar, bar2 float64
	scmfp     float64
	rho0      float64
	capPow    lanePow // (th/ild)^0.222, GroundCapPerMeter's fringe term

	// Shifted (ISLE) mode.
	shifts   [][]float64
	shiftedC []bool
	halfSq   []float64 // |θ|²/2
	anyShift bool

	// QMC mode.
	qmc     bool
	qshifts [][]uint64

	// AIS mode (single candidate): the draw phase samples the stage
	// proposal and the lane writes each sample's delay, not a
	// contribution.
	ais *aisState

	// bank, when non-nil, holds the shared phases' outputs of a prefix
	// of the run's samples (see sampleBank). Only a sizing pass on the
	// unshifted shared-segment path carries one.
	bank *sampleBank
}

// newLaneKernel compiles the kernel for one run. shifts holds the
// per-candidate ISLE mean shifts (nil, or nil entries, for plain
// sampling); qshifts the Sobol scrambles of a QMC run (nil otherwise).
func newLaneKernel(ms *MultiScenario, ro Options, shifts [][]float64, qshifts [][]uint64) *laneKernel {
	K := len(ms.Specs)
	lk := &laneKernel{
		ms:        ms,
		prog:      compileApplyProg(ms.Space, ms.Base),
		scale:     laneScaleFor(ms.Base),
		sharedSeg: true,
		target:    ms.Target,
		seedHash:  mix64(ro.Seed + smGamma),
		bar:       ms.Base.Barrier,
		bar2:      2 * ms.Base.Barrier,
		scmfp:     ms.Base.ScatterCoeff * ms.Base.MeanFreePath,
		rho0:      ms.Base.RhoBulk,
		capPow:    newLanePow(0.222),
		shifts:    shifts,
		shiftedC:  make([]bool, K),
		halfSq:    make([]float64, K),
		qshifts:   qshifts,
		qmc:       qshifts != nil,
	}
	for c, sh := range shifts {
		var sq float64
		for _, t := range sh {
			if t != 0 {
				lk.shiftedC[c] = true
			}
			sq += t * t
		}
		lk.halfSq[c] = sq / 2
		lk.anyShift = lk.anyShift || lk.shiftedC[c]
	}
	// Candidates of a sizing sweep share the wire: detect it so the
	// per-sample extraction (the math.Pow-heavy part) runs once.
	for c := 1; c < K; c++ {
		if ms.Specs[c].Segment != ms.Specs[0].Segment {
			lk.sharedSeg = false
			break
		}
	}
	lk.segs = make([]laneSeg, len(ms.Specs))
	lk.cands = make([]laneCand, len(ms.Specs))
	for c := range ms.Specs {
		spec := &ms.Specs[c]
		lk.segs[c] = laneSegFor(spec.Segment)
		wn, wp := ms.Base.InverterWidths(spec.Size)
		kc := &ms.Coeffs.Inv
		if spec.Kind == liberty.Buffer {
			kc = &ms.Coeffs.Buf
		}
		lk.cands[c] = laneCand{
			wn:         wn,
			wp:         wp,
			wnwp:       wn + wp,
			stageLen:   spec.Segment.Length / float64(spec.N),
			lambdaHalf: spec.Segment.Style.MillerFactor() / 2,
			stages:     spec.N,
			inverter:   spec.Kind == liberty.Inverter,
			kappa0:     kc.Kappa,
			rise:       kc.Rise,
			fall:       kc.Fall,
			inputSlew:  spec.InputSlew,
			staggered:  spec.Segment.Style == wire.Staggered,
		}
	}
	return lk
}

// laneScratch is one worker's lane state: fixed-shape arrays of
// laneSize entries carved from one backing slice, plus the per-sample
// stream and draw buffer of the draw phase. The shape is
// scenario-independent, so scratches are pooled across runs (and across
// the coordinator's shard waves).
type laneScratch struct {
	backing []float64
	epsT    [Dims][]float64     // transposed base draws
	zs      [Dims][]float64     // transposed shifted draws (ISLE)
	fac     [facCount][]float64 // apply-program outputs
	rdN     []float64
	rdP     []float64
	rCap    []float64
	odN     []float64 // Vth overdrives, raised into rdN/rdP
	odP     []float64
	thIld   []float64 // thickness/ILD ratios, raised into gPerM
	dot     []float64
	w       []float64
	wid     []float64
	rPerM   []float64
	gPerM   []float64
	cPerM   []float64
	cl      []float64
	dw      []float64
	tot     []float64
	tot2    []float64
	slw     []float64
	slw2    []float64
	sel     []float64 // AIS component selectors
	stream  Stream
	states  [laneSize]uint64 // the lane's stream states (drawPhase)
	eps     [Dims]float64    // one sample's draw (AIS)
	// qpts holds the unshifted Sobol coordinates of the point indices a
	// QMC lane spans: laneSize samples starting off the replicate grid
	// touch one index more than laneSize/qmcReplicates.
	qpts [laneSize/qmcReplicates + 1][Dims]uint64
}

const laneArrays = Dims + Dims + facCount + 19

var laneScratchPool = sync.Pool{New: func() any {
	ls := &laneScratch{backing: make([]float64, laneArrays*laneSize)}
	b := ls.backing
	carve := func() []float64 {
		a := b[:laneSize:laneSize]
		b = b[laneSize:]
		return a
	}
	for d := 0; d < Dims; d++ {
		ls.epsT[d] = carve()
	}
	for d := 0; d < Dims; d++ {
		ls.zs[d] = carve()
	}
	for f := 0; f < facCount; f++ {
		ls.fac[f] = carve()
	}
	ls.rdN, ls.rdP, ls.rCap = carve(), carve(), carve()
	ls.odN, ls.odP, ls.thIld = carve(), carve(), carve()
	ls.dot, ls.w = carve(), carve()
	ls.wid = carve()
	ls.rPerM, ls.gPerM, ls.cPerM = carve(), carve(), carve()
	ls.cl, ls.dw = carve(), carve()
	ls.tot, ls.tot2 = carve(), carve()
	ls.slw, ls.slw2 = carve(), carve()
	ls.sel = carve()
	return ls
}}

func getLaneScratch() *laneScratch   { return laneScratchPool.Get().(*laneScratch) }
func putLaneScratch(ls *laneScratch) { laneScratchPool.Put(ls) }

// sampleBank keeps, for a prefix of a sizing search's sample indices,
// each sample's outputs of the candidate-independent phases: the drive
// and capacitance ratios and the wire's per-meter extraction, 48 bytes
// a sample. Every pass of one search runs the same rung on the same
// seed, technology, variation space and segment, which fix those
// outputs, so a later pass loads a banked lane instead of drawing,
// perturbing, rescaling and extracting it again. No banked sample is
// too thin: the pass that stored it would have failed.
type sampleBank struct {
	backing []float64
	arr     [bankArrays][]float64 // rdN, rdP, rCap, rPerM, gPerM, cPerM
	// filled is the banked prefix: samples [0, filled). driver.run
	// advances it between steps, never during one.
	filled int
}

const (
	bankArrays = 6
	// bankMaxSamples caps a bank at 3 MiB; a search with a larger
	// budget banks only its first bankMaxSamples samples.
	bankMaxSamples = 1 << 16
)

var sampleBankPool sync.Pool

// getSampleBank returns an empty bank for a search of the given sample
// budget.
func getSampleBank(samples int) *sampleBank {
	n := max(min(samples, bankMaxSamples), 0)
	b, _ := sampleBankPool.Get().(*sampleBank)
	if b == nil || cap(b.backing) < bankArrays*n {
		b = &sampleBank{backing: make([]float64, bankArrays*n)}
	}
	for i := range b.arr {
		b.arr[i] = b.backing[i*n : (i+1)*n : (i+1)*n]
	}
	b.filled = 0
	return b
}

func putSampleBank(b *sampleBank) { sampleBankPool.Put(b) }

// banked returns ls's arrays in the bank's order.
func (ls *laneScratch) banked() [bankArrays][]float64 {
	return [bankArrays][]float64{ls.rdN, ls.rdP, ls.rCap, ls.rPerM, ls.gPerM, ls.cPerM}
}

// store banks the lane of samples [start, start+n), if it fits.
func (b *sampleBank) store(ls *laneScratch, start, n int) {
	if start+n > len(b.arr[0]) {
		return
	}
	for i, a := range ls.banked() {
		copy(b.arr[i][start:start+n], a[:n])
	}
}

// load fills ls with the banked lane of samples [start, start+n).
func (b *sampleBank) load(ls *laneScratch, start, n int) {
	for i, a := range ls.banked() {
		copy(a[:n], b.arr[i][start:start+n])
	}
}

// advance marks samples [0, end) banked once a step ending at end has
// stored its lanes, unless the step ran past the bank's capacity.
func (b *sampleBank) advance(end int) {
	if end <= len(b.arr[0]) && end > b.filled {
		b.filled = end
	}
}

// drawPhase fills the transposed base-draw arrays for global sample
// indices [start, start+n): per-sample ziggurat streams in dimension
// order, Sobol points in QMC mode, or weighted proposal draws in AIS
// mode.
func (lk *laneKernel) drawPhase(ls *laneScratch, start, n int) {
	if lk.qmc {
		// SobolNormal at lane width: sample i takes point i/R of
		// replicate i%R, so each point index's unshifted coordinates are
		// computed once for the up to R samples that share it; each
		// dimension's uniforms then go through Φ⁻¹ in place.
		first := start / qmcReplicates
		pts := ls.qpts[:(start+n-1)/qmcReplicates-first+1]
		for j := range pts {
			estimator.SobolCoords(uint64(first+j), pts[j][:])
		}
		for d := 0; d < Dims; d++ {
			e := ls.epsT[d][:n]
			for k := range e {
				i := start + k
				e[k] = estimator.SobolUniform(pts[i/qmcReplicates-first][d], lk.qshifts[i%qmcReplicates][d])
			}
			estimator.PhiInvLane(e, e)
		}
		return
	}
	// Sample k's stream state starts at seedHash ⊕ index, as
	// Stream.Reset sets it. An AIS sample takes its component selector
	// from the stream's first output (Stream.Float64) before its
	// normals, then maps them through the stage proposal.
	states := ls.states[:n]
	for k := range states {
		states[k] = lk.seedHash ^ uint64(start+k)
	}
	if lk.ais == nil {
		ls.zigWalk(n)
		return
	}
	st := &ls.stream
	sel := ls.sel[:n]
	for k := range sel {
		st.state = states[k]
		sel[k] = st.Float64()
		states[k] = st.state
	}
	ls.zigWalk(n)
	lk.ais.propose(ls, start, n)
}

// zigWalk fills epsT with Dims ziggurat normals for each of the lane's
// first n stream states: NormZig unrolled, one dimension at a time
// across the lane. Each output advances a state by γ, and a draw the
// fast path rejects hands the state to the wedge/tail loop, which
// consumes the same outputs NormZig would. Each sample still draws its
// dimensions in order from its own stream.
func (ls *laneScratch) zigWalk(n int) {
	states := ls.states[:n]
	st := &ls.stream
	for d := 0; d < Dims; d++ {
		e := ls.epsT[d][:n]
		for k := range e {
			state := states[k] + smGamma
			u := mix64(state)
			x, ok := zigFast(u)
			if !ok {
				st.state = state
				x = st.zigSlow(u)
				state = st.state
			}
			states[k] = state
			e[k] = x
		}
	}
}

// shiftCand prepares candidate c's shifted draws and likelihood-ratio
// weights: z ← ε + θ with w = exp(−⟨θ,z⟩ + |θ|²/2), the dot product
// accumulated in dimension order.
func (lk *laneKernel) shiftCand(ls *laneScratch, c, n int) {
	dot := ls.dot[:n]
	for k := range dot {
		dot[k] = 0
	}
	th := lk.shifts[c]
	for d := 0; d < Dims; d++ {
		t := th[d]
		e := ls.epsT[d][:n]
		zz := ls.zs[d][:n]
		for k := range zz {
			z := e[k] + t
			zz[k] = z
			dot[k] += t * z
		}
	}
	w := ls.w[:n]
	half := lk.halfSq[c]
	for k := range w {
		w[k] = math.Exp(-dot[k] + half)
	}
}

// scalePhase derives the per-sample drive and capacitance ratios —
// the subset of ScaleInto the delay path consumes — from the apply
// program's outputs. The expressions mirror model.driveRatio and
// ScaleInto exactly (perturbed K is nominal/fL, perturbed CGate is
// nominal·fL, same association order); only the nominal halves and the
// exponent's decomposition (lanePow) are precomputed, and the powers
// run lane-wide (powLane).
func (lk *laneKernel) scalePhase(ls *laneScratch, n int) {
	sc := &lk.scale
	fL := ls.fac[facL][:n]
	vthN := ls.fac[facVthN][:n]
	vthP := ls.fac[facVthP][:n]
	rdN := ls.rdN[:n]
	rdP := ls.rdP[:n]
	rCap := ls.rCap[:n]
	odN := ls.odN[:n]
	odP := ls.odP[:n]
	// The powers od^α go into rdN and rdP first, lane-wide; the ratio
	// loop then reads each one before it overwrites it.
	for k := range odN {
		odN[k] = sc.vdd - vthN[k]
		odP[k] = sc.vdd - vthP[k]
	}
	if sc.odNPos {
		sc.powN.powLane(odN, rdN)
	}
	if sc.odPPos {
		sc.powP.powLane(odP, rdP)
	}
	for k := range fL {
		r := 1.0
		if sc.odNPos && odN[k] > 0 {
			r = (sc.vdd / ((sc.kN / fL[k]) * rdN[k])) / sc.rNomN
		}
		rdN[k] = r
		r = 1.0
		if sc.odPPos && odP[k] > 0 {
			r = (sc.vdd / ((sc.kP / fL[k]) * rdP[k])) / sc.rNomP
		}
		rdP[k] = r
		rc := 1.0
		if sc.cgPos {
			rc = ((sc.cgN * fL[k]) + (sc.cgP * fL[k])) / sc.cgSum
		}
		rCap[k] = rc
	}
}

// wirePhase fuses perturbSegment with model.SegmentRC: perturb the
// drawn geometry (width at constant pitch, clamped spacing, thickness
// and ILD factors) and extract the corrected per-meter resistance and
// the style-resolved capacitances, mirroring wire.ResistancePerMeter /
// GroundCapPerMeter / CouplingCapPerMeter operation for operation (the
// fringe term's power lane-wide, through powLane).
func (lk *laneKernel) wirePhase(ls *laneScratch, sg *laneSeg, n int) {
	fW := ls.fac[facW][:n]
	fT := ls.fac[facT][:n]
	fI := ls.fac[facILD][:n]
	fR := ls.fac[facRho][:n]
	wid := ls.wid[:n]
	rp := ls.rPerM[:n]
	gp := ls.gPerM[:n]
	cp := ls.cPerM[:n]
	// (th/ild)^0.222 goes into gp first; the extraction loop reads each
	// power before it overwrites it with the ground capacitance.
	ratio := ls.thIld[:n]
	for k := range ratio {
		ratio[k] = (sg.th0 * fT[k]) / (sg.ild0 * fI[k])
	}
	lk.capPow.powLane(ratio, gp)
	for k := range fW {
		dw := sg.w0 * (fW[k] - 1)
		w := sg.w0 + dw
		sp := sg.sp0 - dw
		if sp < sg.minSp {
			sp = sg.minSp
		}
		th := sg.th0 * fT[k]
		ild := sg.ild0 * fI[k]
		rho := lk.rho0 * fR[k]

		coreW := w - lk.bar2
		coreH := th - lk.bar
		if coreW <= 0 || coreH <= 0 {
			rp[k] = 1e12
		} else {
			core := w - lk.bar2
			if core <= 0 {
				core = 1e-10
			}
			rp[k] = rho * (1 + lk.scmfp/core) / (coreW * coreH)
		}

		g := sg.twoEps * (1.15*(w/ild) + 2.80*gp[k])
		cc := sg.c12eps * th / sp
		if sg.shielded {
			gp[k] = g + 2*cc
			cp[k] = 0
		} else {
			gp[k] = g
			cp[k] = 2 * cc
		}
		wid[k] = w
	}
}

// thinSample is a lane's lowest sample whose perturbed width leaves no
// copper core, with the candidate and width it was found at; k < 0
// means none.
type thinSample struct {
	k, c int
	w    float64
}

// checkWidths records in t the lowest sample at which candidate c's
// extracted width is at or below 2·barrier, the bound
// wire.Segment.Validate rejects, unless t already holds a lower one.
// Called with candidates in ascending order, t ends on the lowest such
// sample and, within it, the lowest candidate.
func (lk *laneKernel) checkWidths(ls *laneScratch, c, n int, t *thinSample) {
	for k, w := range ls.wid[:n] {
		if w <= lk.bar2 {
			if t.k < 0 || k < t.k {
				*t = thinSample{k: k, c: c, w: w}
			}
			return
		}
	}
}

// widthErr is the error DelayScratch returns for t's sample: candidate
// t.c's segment, perturbed to width t.w on the perturbed technology
// (whose barrier is the base's), fails validation.
func (lk *laneKernel) widthErr(t thinSample) error {
	seg := lk.ms.Specs[t.c].Segment
	seg.Tech = lk.ms.Base
	seg.Width = t.w
	return seg.Validate()
}

// delayPhase writes candidate c's delay across the lane into out: load
// and wire-delay arrays, both edge polarities, the worst edge (rise on
// a tie, as LineDelayRC picks it). out may be ls.tot.
func (lk *laneKernel) delayPhase(ls *laneScratch, c, n int, out []float64) {
	cd := &lk.cands[c]
	rCap := ls.rCap[:n]
	gp := ls.gPerM[:n]
	cp := ls.cPerM[:n]
	rp := ls.rPerM[:n]
	cl := ls.cl[:n]
	dwv := ls.dw[:n]
	for k := range rCap {
		ci := (cd.kappa0 * rCap[k]) * cd.wnwp
		ground := gp[k] * cd.stageLen
		coupling := cp[k] * cd.stageLen
		quiet, coupled := ground, coupling
		if cd.staggered {
			quiet = ground + coupling
			coupled = 0
		}
		cl[k] = quiet + 2*coupled + ci
		dwv[k] = rp[k] * cd.stageLen * (0.4*quiet + cd.lambdaHalf*coupled + 0.7*ci)
	}
	lk.edgePass(ls, cd, true, ls.tot, ls.slw, n)
	lk.edgePass(ls, cd, false, ls.tot2, ls.slw2, n)
	tR := ls.tot[:n]
	tF := ls.tot2[:n]
	out = out[:n]
	for k := range out {
		d := tR[k]
		if !(tR[k] >= tF[k]) {
			d = tF[k]
		}
		out[k] = d
	}
}

// candPhase scores candidate c across the lane: its delay against the
// target. wts is nil for unit contributions (plain MC/QMC) or the
// likelihood-ratio weights (ISLE).
func (lk *laneKernel) candPhase(ls *laneScratch, c, n int, contrib []float64, K int, wts []float64) {
	lk.delayPhase(ls, c, n, ls.tot)
	dl := ls.tot[:n]
	tgt := lk.target
	if wts == nil {
		for k := range dl {
			if dl[k] > tgt {
				contrib[k*K+c] = 1
			} else {
				contrib[k*K+c] = 0
			}
		}
		return
	}
	w := wts[:n]
	for k := range dl {
		if dl[k] > tgt {
			contrib[k*K+c] = w[k]
		} else {
			contrib[k*K+c] = 0
		}
	}
}

// edgePass evaluates one starting polarity across the lane, mirroring
// that polarity's chain in Coefficients.LineDelayRC with the
// coefficient scaling (scaleEdge's rd·rc products) fused into the stage
// loop. It evaluates every stage: the scalar loop's replay of settled
// stages changes no bit.
func (lk *laneKernel) edgePass(ls *laneScratch, cd *laneCand, startRising bool, tot, slw []float64, n int) {
	tot = tot[:n]
	slw = slw[:n]
	for k := range tot {
		tot[k] = 0
		slw[k] = cd.inputSlew
	}
	rCap := ls.rCap[:n]
	cl := ls.cl[:n]
	dwv := ls.dw[:n]
	outRising := startRising
	if cd.inverter {
		outRising = !startRising
	}
	for i := 0; i < cd.stages; i++ {
		rd := ls.rdN[:n]
		wr := cd.wn
		e := &cd.fall
		if outRising {
			rd = ls.rdP[:n]
			wr = cd.wp
			e = &cd.rise
		}
		a0, a1, a2 := e.A0, e.A1, e.A2
		b0, b1 := e.Beta0, e.Beta1
		g0, g1, g2 := e.Gamma0, e.Gamma1, e.Gamma2
		for k := range tot {
			rdv := rd[k]
			rdrc := rdv * rCap[k]
			s := slw[k]
			clv := cl[k]
			delay := (a0*rdrc + a1*rdrc*s + a2*rdrc*s*s) +
				(b0*rdv/wr+b1*rdv/wr*s)*clv
			tot[k] += delay
			tot[k] += dwv[k]
			sl := g0*rdv + g1*rdv*s/wr + g2*rdv*clv
			if sl < 1e-15 {
				sl = 1e-15
			}
			slw[k] = sl
		}
		if cd.inverter {
			outRising = !outRising
		}
	}
}

// eval scores one lane: global sample indices [start, start+n) into
// contribution rows contrib[k*K+c] (in AIS mode, K = 1 and the row is
// the sample's delay). Only active candidates are written. A sample
// whose perturbed width leaves no copper core fails the lane with the
// error DelayScratch gives for it (see widthErr), lowest sample first,
// then lowest active candidate. A lane the kernel's bank holds skips
// every phase before the scoring.
func (lk *laneKernel) eval(ls *laneScratch, start, n int, contrib []float64, K int, active []bool) error {
	if b := lk.bank; b != nil && start+n <= b.filled {
		b.load(ls, start, n)
		metSizingBanked.Add(int64(n))
		lk.scoreShared(ls, n, contrib, K, active)
		return nil
	}
	lk.drawPhase(ls, start, n)
	thin := thinSample{k: -1}
	switch {
	case lk.ais != nil && lk.ais.metric != nil:
		lk.ais.metric(&ls.epsT, n, contrib)
	case lk.ais != nil:
		lk.prog.run(&ls.epsT, &ls.fac, n)
		lk.scalePhase(ls, n)
		lk.wirePhase(ls, &lk.segs[0], n)
		lk.checkWidths(ls, 0, n, &thin)
		lk.delayPhase(ls, 0, n, contrib)
	case !lk.anyShift:
		lk.prog.run(&ls.epsT, &ls.fac, n)
		lk.scalePhase(ls, n)
		if lk.sharedSeg {
			lk.wirePhase(ls, &lk.segs[0], n)
			// Every candidate holds the same segment, so candidate 0's
			// error is the lowest active candidate's.
			lk.checkWidths(ls, 0, n, &thin)
			if lk.bank != nil && thin.k < 0 {
				lk.bank.store(ls, start, n)
			}
			lk.scoreShared(ls, n, contrib, K, active)
		} else {
			for c := range lk.cands {
				if !active[c] {
					continue
				}
				lk.wirePhase(ls, &lk.segs[c], n)
				lk.checkWidths(ls, c, n, &thin)
				lk.candPhase(ls, c, n, contrib, K, nil)
			}
		}
	default:
		for c := range lk.cands {
			if !active[c] {
				continue
			}
			var wts []float64
			if lk.shiftedC[c] {
				lk.shiftCand(ls, c, n)
				lk.prog.run(&ls.zs, &ls.fac, n)
				wts = ls.w
			} else {
				lk.prog.run(&ls.epsT, &ls.fac, n)
			}
			lk.scalePhase(ls, n)
			lk.wirePhase(ls, &lk.segs[c], n)
			lk.checkWidths(ls, c, n, &thin)
			lk.candPhase(ls, c, n, contrib, K, wts)
		}
	}
	if thin.k >= 0 {
		return lk.widthErr(thin)
	}
	return nil
}

// scoreShared scores every active candidate against the lane's shared
// drive ratios and wire extraction.
func (lk *laneKernel) scoreShared(ls *laneScratch, n int, contrib []float64, K int, active []bool) {
	for c := range lk.cands {
		if active[c] {
			lk.candPhase(ls, c, n, contrib, K, nil)
		}
	}
}

// useBank hands the kernel a sizing search's bank if the run takes the
// unshifted shared-segment path, the one path whose shared phases the
// bank holds.
func (lk *laneKernel) useBank(b *sampleBank) {
	if b != nil && lk.ais == nil && !lk.anyShift && lk.sharedSeg {
		lk.bank = b
	}
}
