package spice

import (
	"fmt"
	"math"
)

// Ground is the node index of the reference node. Its voltage is
// always exactly zero.
const Ground = -1

// Waveform gives the voltage of an independent source as a function of
// time (seconds → volts).
type Waveform func(t float64) float64

// DC returns a constant waveform (supply rails).
func DC(v float64) Waveform { return func(float64) float64 { return v } }

// Ramp returns a linear transition from v0 to v1 starting at t0 and
// lasting dur (the 0–100% ramp time). Before t0 it is v0, after t0+dur
// it is v1. A zero dur yields a step.
func Ramp(v0, v1, t0, dur float64) Waveform {
	return func(t float64) float64 {
		switch {
		case t <= t0 || dur <= 0 && t <= t0:
			return v0
		case dur <= 0 || t >= t0+dur:
			return v1
		default:
			return v0 + (v1-v0)*(t-t0)/dur
		}
	}
}

// RampFromSlew converts a 10–90% transition time (the Liberty slew
// convention used throughout this repository) into the matching 0–100%
// linear ramp duration.
func RampFromSlew(slew float64) float64 { return slew / 0.8 }

type resistor struct {
	a, b int
	g    float64 // conductance, S
}

type capacitor struct {
	a, b int
	c    float64 // F
}

type source struct {
	node int
	w    Waveform
}

// Circuit is a netlist under construction. Create with New, add
// elements, then call Transient. Node indices are allocated by Node.
type Circuit struct {
	names     []string
	byName    map[string]int
	resistors []resistor
	caps      []capacitor
	mosfets   []*Mosfet
	sources   []source
	fixed     map[int]Waveform
}

// New returns an empty circuit.
func New() *Circuit {
	return &Circuit{byName: make(map[string]int), fixed: make(map[int]Waveform)}
}

// Node returns the index of the named node, allocating it on first
// use. The reserved names "0" and "gnd" map to Ground.
func (c *Circuit) Node(name string) int {
	if name == "0" || name == "gnd" {
		return Ground
	}
	if idx, ok := c.byName[name]; ok {
		return idx
	}
	idx := len(c.names)
	c.names = append(c.names, name)
	c.byName[name] = idx
	return idx
}

// NumNodes returns the number of non-ground nodes.
func (c *Circuit) NumNodes() int { return len(c.names) }

// AddResistor connects a resistance of r ohms between nodes a and b.
func (c *Circuit) AddResistor(a, b int, r float64) {
	if r <= 0 {
		panic(fmt.Sprintf("spice: non-positive resistance %g", r))
	}
	c.resistors = append(c.resistors, resistor{a, b, 1 / r})
}

// AddCapacitor connects a capacitance of f farads between a and b.
func (c *Circuit) AddCapacitor(a, b int, f float64) {
	if f < 0 {
		panic(fmt.Sprintf("spice: negative capacitance %g", f))
	}
	if f == 0 {
		return
	}
	c.caps = append(c.caps, capacitor{a, b, f})
}

// AddMosfet adds a transistor to the netlist.
func (c *Circuit) AddMosfet(m *Mosfet) { c.mosfets = append(c.mosfets, m) }

// AddSource pins the voltage of a node to the waveform. A node may
// carry at most one source; pinning ground is an error.
func (c *Circuit) AddSource(node int, w Waveform) error {
	if node == Ground {
		return fmt.Errorf("spice: cannot source the ground node")
	}
	if _, dup := c.fixed[node]; dup {
		return fmt.Errorf("spice: node %d already has a source", node)
	}
	c.fixed[node] = w
	c.sources = append(c.sources, source{node, w})
	return nil
}

// Result holds a transient simulation's sampled waveforms.
type Result struct {
	// Time holds the sample instants (seconds), strictly increasing.
	Time []float64
	// V maps node index → sampled voltages, parallel to Time.
	V map[int][]float64
}

// Voltage returns the waveform samples of a node, or nil if the node
// was not recorded.
func (r *Result) Voltage(node int) []float64 { return r.V[node] }

// TransientOpts tunes the solver. Zero values take documented
// defaults.
type TransientOpts struct {
	// Stop is the simulation end time (required, > 0).
	Stop float64
	// Step is the fixed integration step; default Stop/2000.
	Step float64
	// InitialV provides initial voltages for free nodes (node →
	// volts); unlisted nodes start at 0.
	InitialV map[int]float64
	// Record lists the node indices to record; nil records all.
	Record []int
}

// Each step's Newton solve runs at most maxNewton iterations and
// converges once no node moves by newtonTol (1 µV) or more.
const (
	maxNewton = 60
	newtonTol = 1e-6
)

// Transient runs a backward-Euler transient analysis and returns the
// sampled waveforms.
func (c *Circuit) Transient(opts TransientOpts) (*Result, error) {
	if opts.Stop <= 0 {
		return nil, fmt.Errorf("spice: non-positive stop time")
	}
	dt := opts.Step
	if dt <= 0 {
		dt = opts.Stop / 2000
	}

	n := len(c.names)
	// Map full node index → free-variable index; sources are fixed.
	freeIdx := make([]int, n)
	var nFree int
	for i := 0; i < n; i++ {
		if _, isFixed := c.fixed[i]; isFixed {
			freeIdx[i] = -1
		} else {
			freeIdx[i] = nFree
			nFree++
		}
	}

	v := make([]float64, n) // current node voltages
	for node, vv := range opts.InitialV {
		if node >= 0 && node < n {
			v[node] = vv
		}
	}
	setSources := func(t float64) {
		for _, s := range c.sources {
			v[s.node] = s.w(t)
		}
	}
	setSources(0)

	record := opts.Record
	if record == nil {
		record = make([]int, n)
		for i := range record {
			record[i] = i
		}
	}
	res := &Result{V: make(map[int][]float64, len(record))}
	sample := func(t float64) {
		res.Time = append(res.Time, t)
		for _, node := range record {
			res.V[node] = append(res.V[node], v[node])
		}
	}
	sample(0)

	// Scratch matrices reused across steps.
	G := make([][]float64, nFree)
	for i := range G {
		G[i] = make([]float64, nFree)
	}
	rhs := make([]float64, nFree)
	vOld := make([]float64, n)

	volt := func(node int) float64 {
		if node == Ground {
			return 0
		}
		return v[node]
	}
	// stamp adds conductance g between nodes a and b into G/rhs,
	// folding fixed-node voltages into the RHS.
	stamp := func(a, b int, g float64) {
		fa, fb := -1, -1
		if a != Ground {
			fa = freeIdx[a]
		}
		if b != Ground {
			fb = freeIdx[b]
		}
		if fa >= 0 {
			G[fa][fa] += g
			if fb >= 0 {
				G[fa][fb] -= g
			} else {
				rhs[fa] += g * volt(b)
			}
		}
		if fb >= 0 {
			G[fb][fb] += g
			if fa >= 0 {
				G[fb][fa] -= g
			} else {
				rhs[fb] += g * volt(a)
			}
		}
	}
	// inject adds a current i flowing *into* node a.
	inject := func(a int, i float64) {
		if a == Ground {
			return
		}
		if fa := freeIdx[a]; fa >= 0 {
			rhs[fa] += i
		}
	}

	steps := int(math.Ceil(opts.Stop / dt))
	const dVgm = 1e-5 // finite-difference perturbation for Jacobian

	for s := 1; s <= steps; s++ {
		t := float64(s) * dt
		if t > opts.Stop {
			t = opts.Stop
		}
		copy(vOld, v)
		setSources(t)

		converged := false
		for it := 0; it < maxNewton; it++ {
			for i := range G {
				rhs[i] = 0
				row := G[i]
				for j := range row {
					row[j] = 0
				}
			}
			// Linear elements.
			for _, r := range c.resistors {
				stamp(r.a, r.b, r.g)
			}
			// Capacitors: backward-Euler companion model.
			for _, cp := range c.caps {
				g := cp.c / dt
				stamp(cp.a, cp.b, g)
				iEq := g * (voltOf(vOld, cp.a) - voltOf(vOld, cp.b))
				inject(cp.a, iEq)
				inject(cp.b, -iEq)
			}
			// MOSFETs: linearize around the current guess with a
			// finite-difference Jacobian, then stamp as a Norton
			// equivalent.
			for _, m := range c.mosfets {
				vg, vd, vs := volt(m.Gate), volt(m.Drain), volt(m.Source)
				id := m.Ids(vg, vd, vs)
				gds := (m.Ids(vg, vd+dVgm, vs) - id) / dVgm
				gm := (m.Ids(vg+dVgm, vd, vs) - id) / dVgm
				gs := (m.Ids(vg, vd, vs+dVgm) - id) / dVgm
				// Keep the system solvable if the device is fully
				// off: a tiny minimum output conductance.
				const gmin = 1e-12
				if math.Abs(gds) < gmin {
					gds = gmin
				}
				// Current into drain = id; into source = −id.
				// Linearization: i(vg,vd,vs) ≈ id + gm·Δvg +
				// gds·Δvd + gs·Δvs. Move the proportional parts
				// into the matrix as a voltage-controlled current
				// source pattern.
				stampVCCS := func(node int, sign float64) {
					if node == Ground {
						return
					}
					f := freeIdx[node]
					if f < 0 {
						return
					}
					addTo := func(ctrl int, g float64) {
						if g == 0 {
							return
						}
						if ctrl == Ground {
							return
						}
						if fc := freeIdx[ctrl]; fc >= 0 {
							G[f][fc] += sign * g
						} else {
							rhs[f] -= sign * g * volt(ctrl)
						}
					}
					// KCL residual form: G·v = rhs with device
					// current moved left: sign·(id − gm·vg − gds·vd
					// − gs·vs) stays on the RHS.
					addTo(m.Gate, gm)
					addTo(m.Drain, gds)
					addTo(m.Source, gs)
					rhs[f] -= sign * (id - gm*vg - gds*vd - gs*vs)
				}
				stampVCCS(m.Drain, 1)
				stampVCCS(m.Source, -1)
			}

			dv, err := solveDense(G, rhs)
			if err != nil {
				return nil, fmt.Errorf("spice: t=%.3e: %w", t, err)
			}
			// dv is the new free-node voltage vector (not a delta):
			// apply with damping against the previous iterate.
			maxDelta := 0.0
			for node := 0; node < n; node++ {
				f := freeIdx[node]
				if f < 0 {
					continue
				}
				delta := dv[f] - v[node]
				const maxStep = 0.3
				if delta > maxStep {
					delta = maxStep
				} else if delta < -maxStep {
					delta = -maxStep
				}
				v[node] += delta
				if a := math.Abs(delta); a > maxDelta {
					maxDelta = a
				}
			}
			if maxDelta < newtonTol {
				converged = true
				break
			}
		}
		if !converged {
			return nil, fmt.Errorf("spice: Newton did not converge at t=%.3e", t)
		}
		sample(t)
	}
	return res, nil
}

func voltOf(v []float64, node int) float64 {
	if node == Ground {
		return 0
	}
	return v[node]
}

// solveDense solves A·x=b by Gaussian elimination with partial
// pivoting, destroying neither input.
func solveDense(a [][]float64, b []float64) ([]float64, error) {
	n := len(a)
	m := make([][]float64, n)
	for i := range m {
		m[i] = append([]float64(nil), a[i]...)
	}
	x := append([]float64(nil), b...)
	for col := 0; col < n; col++ {
		p, best := col, math.Abs(m[col][col])
		for r := col + 1; r < n; r++ {
			if v := math.Abs(m[r][col]); v > best {
				best, p = v, r
			}
		}
		if best == 0 {
			return nil, fmt.Errorf("singular conductance matrix (floating node?)")
		}
		m[col], m[p] = m[p], m[col]
		x[col], x[p] = x[p], x[col]
		inv := 1 / m[col][col]
		for r := col + 1; r < n; r++ {
			f := m[r][col] * inv
			if f == 0 {
				continue
			}
			for cc := col; cc < n; cc++ {
				m[r][cc] -= f * m[col][cc]
			}
			x[r] -= f * x[col]
		}
	}
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		for cc := i + 1; cc < n; cc++ {
			s -= m[i][cc] * x[cc]
		}
		x[i] = s / m[i][i]
	}
	return x, nil
}
