package sta

import (
	"fmt"

	"repro/internal/liberty"
	"repro/internal/rcnet"
	"repro/internal/wire"
)

// lineSections is the per-stage RC-ladder discretization of every
// Line. Thirty-two sections put the discretization error of a uniform
// line well below a percent.
const lineSections = 32

// Line is a uniformly buffered interconnect: N identical repeaters at
// equal spacing along a wire, each driving a wire segment of length
// L/N whose far end feeds the next repeater (the final segment feeds a
// receiver with the same input capacitance).
type Line struct {
	// Cell is the repeater used at every stage.
	Cell *liberty.Cell
	// N is the repeater count (≥ 1).
	N int
	// Segment describes the full wire: total length, layer, style.
	Segment wire.Segment
	// InputSlew is the 10–90% transition time at the first
	// repeater's input (the paper's Table II uses 300 ps).
	InputSlew float64
}

// StageTiming records one stage of the golden analysis.
type StageTiming struct {
	// GateDelay is the repeater's NLDM delay (s).
	GateDelay float64
	// WireDelay is the transient RC delay of the stage's wire (s).
	WireDelay float64
	// OutSlew is the slew at the stage's far end, input to the next
	// stage (s).
	OutSlew float64
}

// Result is a golden analysis outcome.
type Result struct {
	// Delay is the worst (max over starting edge polarity) total
	// delay from the first repeater's input to the receiver (s).
	Delay float64
	// RiseDelay and FallDelay are the totals for an initial
	// rising/falling transition at the line input.
	RiseDelay, FallDelay float64
	// OutputSlew is the slew at the receiver for the worst edge.
	OutputSlew float64
	// Stages holds the per-stage breakdown for the worst edge.
	Stages []StageTiming
}

// Analyze runs the golden stage-by-stage timing analysis.
func (l *Line) Analyze() (*Result, error) {
	if l.Cell == nil {
		return nil, fmt.Errorf("sta: line has no repeater cell")
	}
	if l.N < 1 {
		return nil, fmt.Errorf("sta: need at least one repeater, got %d", l.N)
	}
	if l.InputSlew <= 0 {
		return nil, fmt.Errorf("sta: non-positive input slew")
	}
	if err := l.Segment.Validate(); err != nil {
		return nil, err
	}

	rise, stagesRise, err := l.analyzeEdge(true)
	if err != nil {
		return nil, err
	}
	fall, stagesFall, err := l.analyzeEdge(false)
	if err != nil {
		return nil, err
	}
	res := &Result{RiseDelay: rise, FallDelay: fall}
	if rise >= fall {
		res.Delay = rise
		res.Stages = stagesRise
	} else {
		res.Delay = fall
		res.Stages = stagesFall
	}
	res.OutputSlew = res.Stages[len(res.Stages)-1].OutSlew
	return res, nil
}

// analyzeEdge propagates one starting polarity through all N stages.
// outRising tracks the direction of the *output* transition of the
// current repeater; inverters flip it per stage, buffers do not.
func (l *Line) analyzeEdge(startRising bool) (float64, []StageTiming, error) {
	stageSeg := l.Segment
	stageSeg.Length = l.Segment.Length / float64(l.N)

	tc := l.Segment.Tech
	slew := l.InputSlew
	outRising := startRising
	if l.Cell.Kind == liberty.Inverter {
		outRising = !startRising
	}

	total := 0.0
	stages := make([]StageTiming, 0, l.N)
	for i := 0; i < l.N; i++ {
		// Receiver at the end of this stage: the next repeater, or
		// an identical receiving gate after the final segment.
		loadCin := l.Cell.InputCap

		lad, err := rcnet.FromSegment(stageSeg, lineSections, GoldenMiller, loadCin)
		if err != nil {
			return 0, nil, err
		}
		cTotal := lad.TotalC()

		gateDelay := l.Cell.Delay(outRising, slew, cTotal)
		midSlew := l.Cell.OutSlew(outRising, slew, cTotal)
		if gateDelay <= 0 || midSlew <= 0 {
			return 0, nil, fmt.Errorf("sta: non-positive NLDM result at stage %d (slew=%g load=%g)", i, slew, cTotal)
		}

		wireDelay, farSlew, err := ladderSim(lad, tc.Vdd, midSlew)
		if err != nil {
			return 0, nil, fmt.Errorf("sta: stage %d wire: %w", i, err)
		}

		total += gateDelay + wireDelay
		stages = append(stages, StageTiming{GateDelay: gateDelay, WireDelay: wireDelay, OutSlew: farSlew})

		slew = farSlew
		if l.Cell.Kind == liberty.Inverter {
			outRising = !outRising
		}
	}
	return total, stages, nil
}
