package experiments

import (
	"context"
	"fmt"

	"repro/internal/noc"
	"repro/internal/tech"
	"repro/internal/wire"
)

// SensitivityRow records one point of the model-sensitivity study:
// the NoC synthesized when the (accurate) proposed model's delay
// predictions are scaled by DelayScale.
type SensitivityRow struct {
	DelayScale float64
	Metrics    noc.Metrics
	// MaxLinkLength is the wire-length frontier under the scaled
	// model.
	MaxLinkLength float64
}

// SensitivityConfig selects the sweep.
type SensitivityConfig struct {
	// Tech and Case pick the configuration; defaults 90nm / DVOPD.
	Tech, Case string
	// DelayScales lists the perturbations; default {1.0, 1.25, 1.5,
	// 2.0} (pessimism sweep — optimism saturates at the accurate
	// model's own feasibility frontier).
	DelayScales []float64
}

func (c SensitivityConfig) withDefaults() SensitivityConfig {
	if c.Tech == "" {
		c.Tech = "90nm"
	}
	if c.Case == "" {
		c.Case = "DVOPD"
	}
	if c.DelayScales == nil {
		c.DelayScales = []float64{1.0, 1.25, 1.5, 2.0}
	}
	return c
}

// Sensitivity quantifies the paper's motivating claim — that
// system-level architectural decisions are sensitive to interconnect
// model accuracy — by synthesizing the same SoC under systematically
// perturbed versions of the proposed model and recording how the
// architecture (routers, hops) and reported metrics move per unit of
// model error.
func Sensitivity(cfg SensitivityConfig) ([]SensitivityRow, error) {
	c := cfg.withDefaults()
	tc, err := tech.Lookup(c.Tech)
	if err != nil {
		return nil, err
	}
	spec, err := noc.SpecByName(c.Case)
	if err != nil {
		return nil, err
	}
	base, err := noc.NewProposedModel(tc, spec.DataWidth, wire.SWSS)
	if err != nil {
		return nil, err
	}
	var rows []SensitivityRow
	for _, ds := range c.DelayScales {
		lm, err := noc.NewScaledModel(base, ds, 1.0)
		if err != nil {
			return nil, err
		}
		net, err := noc.SynthesizeCtx(context.TODO(), spec, lm, noc.SynthOptions{})
		if err != nil {
			return nil, fmt.Errorf("experiments: sensitivity scale %g: %w", ds, err)
		}
		rows = append(rows, SensitivityRow{
			DelayScale:    ds,
			Metrics:       net.Evaluate(),
			MaxLinkLength: lm.MaxLength(),
		})
	}
	return rows, nil
}
