package experiments

import (
	"context"
	"fmt"

	"repro/internal/noc"
	"repro/internal/tech"
	"repro/internal/wire"
)

// TableIIIRow is one row of the Table III reproduction: the NoC that
// COSI-style synthesis produces for one test case, technology, and
// interconnect model, with the metrics the tool reports.
type TableIIIRow struct {
	Tech    string
	Case    string
	Model   string // "original" or "proposed"
	Metrics noc.Metrics
	// MaxLinkLength is the model's wire-length feasibility limit
	// (m) — the source of the "excessively long wires" observation.
	MaxLinkLength float64
	// Traffic holds cycle-based simulation results when
	// TableIIIConfig.Simulate was set.
	Traffic *noc.SimResult
}

// TableIIIConfig selects the sweep.
type TableIIIConfig struct {
	// Techs lists technology names; default {90nm, 65nm, 45nm} with
	// the paper's 1.5/2.25/3.0 GHz clocks built into the nodes.
	Techs []string
	// Cases lists test-case names; default {VPROC, DVOPD}.
	Cases []string
	// Style is the bus design style; default SWSS.
	Style wire.Style
	// Simulate additionally runs the cycle-based traffic simulation
	// on each synthesized network.
	Simulate bool
}

func (c TableIIIConfig) withDefaults() TableIIIConfig {
	if c.Techs == nil {
		c.Techs = []string{"90nm", "65nm", "45nm"}
	}
	if c.Cases == nil {
		c.Cases = []string{"VPROC", "DVOPD"}
	}
	return c
}

// TableIIICtx regenerates the NoC-synthesis impact study: each test
// case is synthesized at each node under both interconnect models, and
// the tool-reported metrics are collected. Cancellation propagates
// into every synthesis (and is additionally checked between sweep
// cells), so a deadline-bound sweep returns ctx.Err() promptly with
// the partial rows discarded.
func TableIIICtx(ctx context.Context, cfg TableIIIConfig) ([]TableIIIRow, error) {
	c := cfg.withDefaults()
	var rows []TableIIIRow
	for _, name := range c.Techs {
		tc, err := tech.Lookup(name)
		if err != nil {
			return nil, err
		}
		for _, cs := range c.Cases {
			spec, err := noc.SpecByName(cs)
			if err != nil {
				return nil, err
			}
			models := []noc.LinkModel{}
			orig, err := noc.NewOriginalModel(tc, spec.DataWidth, c.Style)
			if err != nil {
				return nil, err
			}
			prop, err := noc.NewProposedModel(tc, spec.DataWidth, c.Style)
			if err != nil {
				return nil, err
			}
			models = append(models, orig, prop)
			for _, lm := range models {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
				net, err := noc.SynthesizeCtx(ctx, spec, lm, noc.SynthOptions{})
				if err != nil {
					return nil, fmt.Errorf("experiments: %s/%s/%s: %w", name, cs, lm.Name(), err)
				}
				row := TableIIIRow{
					Tech: name, Case: cs, Model: lm.Name(),
					Metrics:       net.Evaluate(),
					MaxLinkLength: lm.MaxLength(),
				}
				if c.Simulate {
					sim, err := net.Simulate()
					if err != nil {
						return nil, fmt.Errorf("experiments: %s/%s/%s simulation: %w", name, cs, lm.Name(), err)
					}
					row.Traffic = sim
				}
				rows = append(rows, row)
			}
		}
	}
	return rows, nil
}

// FindTableIII locates a row by key; it returns an error if missing
// so shape checks fail loudly.
func FindTableIII(rows []TableIIIRow, techName, cs, modelName string) (TableIIIRow, error) {
	for _, r := range rows {
		if r.Tech == techName && r.Case == cs && r.Model == modelName {
			return r, nil
		}
	}
	return TableIIIRow{}, fmt.Errorf("experiments: no Table III row %s/%s/%s", techName, cs, modelName)
}
