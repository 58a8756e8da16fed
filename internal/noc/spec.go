// Package noc is the communication-synthesis substrate of the
// reproduction — the role COSI-OCC plays in the paper: given a
// system-on-chip communication specification (cores with floorplan
// positions and bandwidth-annotated point-to-point flows), synthesize
// a network-on-chip from buffered links and routers that meets the
// clock-frequency and wire-length feasibility constraints, minimizing
// interconnect power; then report power, delay, area, and hop count.
//
// The interconnect cost models are pluggable (the LinkModel
// interface): the paper's Table III contrasts the topologies and
// metrics the tool produces with the original (Bakoglu-based,
// uncalibrated) model against the proposed calibrated predictive
// models.
package noc

import "fmt"

// Core is one IP block in the specification, with its floorplan
// placement. Positions and sizes are in meters.
type Core struct {
	Name string
	// X, Y is the core's center.
	X, Y float64
}

// Flow is one point-to-point communication requirement.
type Flow struct {
	Src, Dst string
	// Bandwidth is the sustained requirement in bits/second.
	Bandwidth float64
}

// Spec is a complete synthesis input.
type Spec struct {
	// Name labels the test case (e.g. "VPROC").
	Name string
	// DataWidth is the link width in bits (the paper's designs use
	// 128-bit data widths).
	DataWidth int
	Cores     []Core
	Flows     []Flow
}

// Core returns the named core, or an error.
func (s *Spec) Core(name string) (Core, error) {
	for _, c := range s.Cores {
		if c.Name == name {
			return c, nil
		}
	}
	return Core{}, fmt.Errorf("noc: spec %q has no core %q", s.Name, name)
}

// Validate checks referential integrity and physical plausibility.
func (s *Spec) Validate() error {
	if s.DataWidth < 1 {
		return fmt.Errorf("noc: spec %q: data width %d", s.Name, s.DataWidth)
	}
	if len(s.Cores) == 0 {
		return fmt.Errorf("noc: spec %q has no cores", s.Name)
	}
	seen := make(map[string]bool, len(s.Cores))
	for _, c := range s.Cores {
		if c.Name == "" {
			return fmt.Errorf("noc: spec %q: unnamed core", s.Name)
		}
		if seen[c.Name] {
			return fmt.Errorf("noc: spec %q: duplicate core %q", s.Name, c.Name)
		}
		seen[c.Name] = true
	}
	if len(s.Flows) == 0 {
		return fmt.Errorf("noc: spec %q has no flows", s.Name)
	}
	for i, f := range s.Flows {
		if !seen[f.Src] || !seen[f.Dst] {
			return fmt.Errorf("noc: spec %q flow %d references unknown core (%s→%s)", s.Name, i, f.Src, f.Dst)
		}
		if f.Src == f.Dst {
			return fmt.Errorf("noc: spec %q flow %d is a self-loop on %s", s.Name, i, f.Src)
		}
		if f.Bandwidth <= 0 {
			return fmt.Errorf("noc: spec %q flow %d has bandwidth %g", s.Name, i, f.Bandwidth)
		}
	}
	return nil
}
