// Command techinfo summarizes a technology node: the descriptor
// values, derived wire parasitics per millimeter (with and without
// the nanometer corrections), the characterized FO4 delay, and the
// wire-length feasibility limits under both interconnect models. With
// -json it dumps the raw descriptor as JSON instead.
//
// Usage:
//
//	techinfo [-tech 65nm] [-json] [-fo4]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/liberty"
	"repro/internal/noc"
	"repro/internal/tech"
	"repro/internal/wire"
)

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("techinfo", flag.ContinueOnError)
	fs.SetOutput(stderr)
	techFlag := fs.String("tech", "65nm", "technology node")
	jsonFlag := fs.Bool("json", false, "dump the descriptor as JSON")
	fo4Flag := fs.Bool("fo4", false, "characterize the library and report FO4 (slow on first use)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	tc, err := tech.Lookup(*techFlag)
	if err != nil {
		return err
	}
	if *jsonFlag {
		return tc.WriteJSON(stdout)
	}

	fmt.Fprintf(stdout, "%s\n\n", tc)
	fmt.Fprintf(stdout, "devices:    Vth %-5.2g/%-5.2g V   Ioff %.3g/%.3g A/m   P/N ratio %g\n",
		tc.NMOS.Vth, tc.PMOS.Vth, tc.NMOS.IOff, tc.PMOS.IOff, tc.PNRatio)
	fmt.Fprintf(stdout, "global wire: w=%.0fnm s=%.0fnm t=%.0fnm (barrier %.1fnm)\n",
		tc.Global.Width*1e9, tc.Global.Spacing*1e9, tc.Global.Thickness*1e9, tc.Barrier*1e9)

	w := tc.Global.Width
	rCorr := wire.ResistancePerMeter(tc, tc.Global, w) * 1e-3
	rClassic := wire.ClassicResistancePerMeter(tc, tc.Global, w) * 1e-3
	cg := wire.GroundCapPerMeter(tc, tc.Global, w) * 1e-3 * 1e15
	cc := wire.CouplingCapPerMeter(tc, tc.Global, tc.Global.Spacing) * 1e-3 * 1e15
	fmt.Fprintf(stdout, "per mm:     R=%.1f Ω (classic %.1f Ω, +%.0f%%)   Cg=%.1f fF   Cc=%.1f fF/side\n",
		rCorr, rClassic, (rCorr/rClassic-1)*100, cg, cc)

	for _, mk := range []string{"proposed", "original"} {
		var lm noc.LinkModel
		var err error
		if mk == "proposed" {
			lm, err = noc.NewProposedModel(tc, 128, wire.SWSS)
		} else {
			lm, err = noc.NewOriginalModel(tc, 128, wire.SWSS)
		}
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "max feasible link (%s model, %.3g GHz): %.2f mm\n",
			mk, tc.Clock/1e9, lm.MaxLength()*1e3)
	}

	if *fo4Flag {
		fmt.Fprintln(stderr, "characterizing library for FO4...")
		lib, err := liberty.Get(tc)
		if err != nil {
			return err
		}
		fo4, err := lib.FO4(8)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "FO4 delay:  %.2f ps\n", fo4*1e12)
	}
	return nil
}

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		if err != flag.ErrHelp {
			fmt.Fprintln(os.Stderr, "techinfo:", err)
		}
		os.Exit(1)
	}
}
