// Package predint is an open-source reproduction of "Accurate
// Predictive Interconnect Modeling for System-Level Design" (Carloni,
// Kahng, Muddu, Pinto, Samadi, Sharma — IEEE TVLSI 18(4), 2010): fast
// closed-form predictive models for the delay, power, and area of
// global buffered interconnects, calibrated by regression against a
// golden characterization flow, plus a COSI-OCC-style network-on-chip
// communication-synthesis tool that consumes them.
//
// This root package is the public facade: it wires together the
// substrates (technology descriptors, circuit simulation, NLDM
// library characterization, parasitic networks, golden sign-off
// timing, baseline models, buffering optimization, NoC synthesis) so
// that a downstream user can design links and synthesize networks in
// a few calls. The full machinery lives under internal/ and is
// exercised by the cmd/ tools, the examples/ programs, and the
// benchmark harness in bench_test.go, which regenerates every table
// and figure of the paper's evaluation (see DESIGN.md and
// EXPERIMENTS.md).
//
// Quick start:
//
//	res, err := predint.DesignLink(predint.LinkRequest{
//		Tech:     "65nm",
//		LengthMM: 5,
//	})
//	// res.Delay, res.DynamicPower, res.Repeaters, ...
//
// All physical quantities are SI: seconds, meters, ohms, farads,
// watts.
//
// The json tags of the request and result types are cmd/predintd's
// wire form, both its public bodies and its shard RPCs: renaming a key
// changes the served API.
package predint
