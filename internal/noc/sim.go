package noc

import (
	"fmt"
	"math"
)

// This file adds a cycle-based traffic simulation of a synthesized
// network — the validation companion the analytic Evaluate metrics
// need: packets are injected per the specification's bandwidths,
// serialized over links flit by flit, queued at contended buses, and
// delayed by router pipelines. It answers the question the analytic
// model cannot: do the synthesized capacities actually sustain the
// offered traffic, and how far is real (queued) latency from the
// zero-load number?

// The simulation's fixed parameters: a measurement window of
// simCycles clock cycles after simWarmup cycles that are simulated but
// excluded from statistics, packets of simPacketFlits flits (one flit
// is one DataWidth word per cycle), and up to simDrain cycles for
// in-flight packets to finish after injection stops.
const (
	simCycles      = 20000
	simWarmup      = simCycles / 10
	simPacketFlits = 8
	simDrain       = 4 * simCycles
)

// SimResult reports the measured traffic statistics.
type SimResult struct {
	// PacketsInjected and PacketsDelivered count packets within the
	// measurement window (all injected packets are eventually
	// delivered or the simulation errors).
	PacketsInjected, PacketsDelivered int
	// AvgLatency is the mean packet latency (s): injection to tail
	// arrival at the destination.
	AvgLatency float64
	// MaxLatency is the worst packet latency (s).
	MaxLatency float64
	// LinkUtilization is the measured busy fraction of each link
	// over the measurement window, parallel to Network.Links.
	LinkUtilization []float64
}

// packet is one in-flight packet.
type packet struct {
	flow     int
	route    []int
	hop      int // index into route of the link it must traverse next
	readyAt  int // cycle at which its tail is available at the current node
	injected int // injection cycle
}

// Simulate runs the cycle-based traffic simulation. It is
// deterministic: injection uses per-flow rate accumulators (no
// randomness), and links arbitrate FIFO with ties broken by flow
// index. It runs Check first, which refuses every oversubscribed
// link, so its error for packets still in flight after the drain is a
// guard: it fires only for a Check-valid network whose queues do not
// drain within simDrain cycles, and no known network does that.
func (n *Network) Simulate() (*SimResult, error) {
	if err := n.Check(); err != nil {
		return nil, err
	}
	capacity := float64(n.Spec.DataWidth) * n.Model.Tech().Clock

	// Per-flow flit rate (flits per cycle) and packet accumulator.
	rates := make([]float64, len(n.Spec.Flows))
	for fi, f := range n.Spec.Flows {
		rates[fi] = f.Bandwidth / capacity
	}
	acc := make([]float64, len(n.Spec.Flows))

	queues := make([][]*packet, len(n.Links))
	busyUntil := make([]int, len(n.Links))
	busyCycles := make([]int, len(n.Links))

	res := &SimResult{LinkUtilization: make([]float64, len(n.Links))}
	var latencySum float64
	period := 1 / n.Model.Tech().Clock

	inFlight := 0
	const horizon = simWarmup + simCycles
	const maxCycle = horizon + simDrain

	for cycle := 0; cycle < maxCycle; cycle++ {
		// Inject a packet each time a flow has accrued its flits.
		if cycle < horizon {
			for fi := range n.Spec.Flows {
				acc[fi] += rates[fi]
				for acc[fi] >= simPacketFlits {
					acc[fi] -= simPacketFlits
					p := &packet{flow: fi, route: n.Routes[fi], readyAt: cycle, injected: cycle}
					queues[p.route[0]] = append(queues[p.route[0]], p)
					if cycle >= simWarmup {
						res.PacketsInjected++
					}
					inFlight++
				}
			}
		}
		// Advance links in deterministic order.
		for li := range n.Links {
			if busyUntil[li] > cycle {
				if cycle >= simWarmup && cycle < horizon {
					busyCycles[li]++
				}
				continue
			}
			q := queues[li]
			// Pick the first ready packet (FIFO with readiness).
			pick := -1
			for i, p := range q {
				if p.readyAt <= cycle {
					pick = i
					break
				}
			}
			if pick < 0 {
				continue
			}
			p := q[pick]
			queues[li] = append(q[:pick], q[pick+1:]...)
			done := cycle + simPacketFlits // serialization over the bus
			busyUntil[li] = done
			if cycle >= simWarmup && cycle < horizon {
				busyCycles[li]++
			}
			// Where does the packet land?
			p.hop++
			if p.hop == len(p.route) {
				// Delivered: tail arrives at done.
				lat := float64(done-p.injected) * period
				if p.injected >= simWarmup && p.injected < horizon {
					res.PacketsDelivered++
					latencySum += lat
					if lat > res.MaxLatency {
						res.MaxLatency = lat
					}
				}
				inFlight--
				continue
			}
			// Next link: available after router pipeline.
			next := p.route[p.hop]
			p.readyAt = done + n.Router.Cycles
			queues[next] = append(queues[next], p)
		}
		if cycle >= horizon && inFlight == 0 {
			break
		}
	}
	if inFlight > 0 {
		return nil, fmt.Errorf("noc: %d packets still in flight after drain — offered load exceeds capacity", inFlight)
	}
	if res.PacketsDelivered > 0 {
		res.AvgLatency = latencySum / float64(res.PacketsDelivered)
	}
	for li := range n.Links {
		res.LinkUtilization[li] = float64(busyCycles[li]) / simCycles
	}
	return res, nil
}

// ZeroLoadLatency returns the analytic zero-load latency (s) of a
// flow's route including packet serialization: per hop one cycle per
// flit-serialized link word... in this simple store-and-forward model
// a packet of F flits takes F cycles per link plus the router
// pipeline between links.
func (n *Network) ZeroLoadLatency(flow int, packetFlits int) float64 {
	route := n.Routes[flow]
	period := 1 / n.Model.Tech().Clock
	cycles := len(route)*packetFlits + (len(route)-1)*n.Router.Cycles
	return float64(cycles) * period
}

// AvgZeroLoadLatency averages ZeroLoadLatency over all flows
// (unweighted — one vote per flow).
func (n *Network) AvgZeroLoadLatency(packetFlits int) float64 {
	if len(n.Routes) == 0 {
		return 0
	}
	s := 0.0
	for fi := range n.Routes {
		s += n.ZeroLoadLatency(fi, packetFlits)
	}
	return s / float64(len(n.Routes))
}

// WeightedZeroLoadLatency averages ZeroLoadLatency weighted by flow
// bandwidth — the quantity a per-packet average (such as Simulate's
// AvgLatency) converges to at zero load, since packet counts are
// proportional to bandwidth.
func (n *Network) WeightedZeroLoadLatency(packetFlits int) float64 {
	var s, w float64
	for fi := range n.Routes {
		bw := n.Spec.Flows[fi].Bandwidth
		s += bw * n.ZeroLoadLatency(fi, packetFlits)
		w += bw
	}
	if w == 0 {
		return 0
	}
	return s / w
}

// utilizationError returns the worst absolute difference between the
// simulation's measured link utilization and the analytic value —
// used by tests to close the loop between the two.
func utilizationError(n *Network, sim *SimResult) float64 {
	worst := 0.0
	for li := range n.Links {
		analytic := n.linkUtilization(&n.Links[li])
		if d := math.Abs(analytic - sim.LinkUtilization[li]); d > worst {
			worst = d
		}
	}
	return worst
}
