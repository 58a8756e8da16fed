package noc

import (
	"context"
	"fmt"
	"math"
	"sort"

	"repro/internal/obs"
	"repro/internal/pool"
)

// Synthesis observability (see internal/obs).
var (
	metSyntheses     = obs.NewCounter("noc.syntheses")
	metMergesApplied = obs.NewCounter("noc.merges_applied")
)

// SynthOptions tunes the synthesis.
type SynthOptions struct {
	// Workers bounds the goroutines evaluating merge candidates:
	// 0 uses every core, 1 runs the serial algorithm. The result is
	// identical either way — candidates are scored independently and
	// reduced in the serial loop's order.
	Workers int
}

// The synthesis budgets: a flow's path takes at most maxHops (16)
// links, and the greedy improvement loop applies at most
// maxMergeIters (64) merges.
const (
	maxHops       = 16
	maxMergeIters = 64
)

// synthesizer carries the working state of one synthesis run.
type synthesizer struct {
	spec   *Spec
	model  *DesignCache
	router RouterParams
	opts   SynthOptions

	nodes  []Node
	links  []Link
	routes [][]int
	// coreID maps core names to node IDs.
	coreID map[string]int
}

// SynthesizeCtx builds a power-minimized feasible NoC for the
// specification under the given interconnect model: point-to-point
// links first (split by the model's wire-length limit), then a greedy
// channel-merging improvement loop that inserts routers where sharing
// a bus reduces total power without violating the hop, radix, or
// capacity constraints — the COSI-OCC flow in miniature.
//
// Cancellation is cooperative, checked between flows while the initial
// topology is built and between candidate batches in the merge loop: a
// cancelled run returns ctx.Err() promptly and leaves any shared
// DesignCache unpoisoned (no cancellation error is ever memoized). A
// run that completes under a live context is bit-identical to one
// under context.Background().
func SynthesizeCtx(ctx context.Context, spec *Spec, lm LinkModel, opts SynthOptions) (*Network, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	metSyntheses.Inc()
	s := newSynthesizer(spec, lm, opts)
	if err := s.initialTopology(ctx); err != nil {
		return nil, err
	}
	if err := s.mergeLoop(ctx); err != nil {
		return nil, err
	}

	net := &Network{
		Spec:   spec,
		Model:  s.model,
		Router: s.router,
		Nodes:  s.nodes,
		Links:  s.links,
		Routes: s.routes,
	}
	if err := net.Check(); err != nil {
		return nil, fmt.Errorf("noc: synthesis produced invalid network: %w", err)
	}
	return net, nil
}

// newSynthesizer starts a run with the specification's cores as its
// only nodes, under the technology's default routers.
func newSynthesizer(spec *Spec, lm LinkModel, opts SynthOptions) *synthesizer {
	s := &synthesizer{
		spec:   spec,
		model:  NewDesignCache(lm),
		router: DefaultRouterParams(lm.Tech()),
		opts:   opts,
		coreID: make(map[string]int, len(spec.Cores)),
	}
	for _, c := range spec.Cores {
		id := len(s.nodes)
		s.nodes = append(s.nodes, Node{ID: id, Kind: CoreNode, Name: c.Name, X: c.X, Y: c.Y})
		s.coreID[c.Name] = id
	}
	return s
}

// dist returns the Manhattan distance between two nodes.
func (s *synthesizer) dist(a, b int) float64 {
	na, nb := &s.nodes[a], &s.nodes[b]
	return math.Abs(na.X-nb.X) + math.Abs(na.Y-nb.Y)
}

// addRouter creates a router node at (x, y).
func (s *synthesizer) addRouter(x, y float64) int {
	id := len(s.nodes)
	s.nodes = append(s.nodes, Node{ID: id, Kind: RouterNode, Name: fmt.Sprintf("r%d", id), X: x, Y: y})
	return id
}

// addLink designs and appends a link from a to b carrying the given
// flows; it fails if the geometry is infeasible under the model.
func (s *synthesizer) addLink(ctx context.Context, a, b int, flows []int) (int, error) {
	length := s.dist(a, b)
	if length <= 0 {
		return 0, fmt.Errorf("noc: zero-length link %d→%d", a, b)
	}
	d, err := s.model.DesignCtx(ctx, length)
	if err != nil {
		return 0, err
	}
	li := len(s.links)
	s.links = append(s.links, Link{From: a, To: b, Design: d, FlowIdx: append([]int(nil), flows...)})
	return li, nil
}

// initialTopology builds the Phase-A network: one route per flow,
// direct where the wire-length limit allows, otherwise a chain of
// relay routers along the Manhattan (L-shaped) route. Links between
// identical node pairs are shared when capacity allows.
func (s *synthesizer) initialTopology(ctx context.Context) error {
	maxLen := s.model.MaxLength()
	if maxLen <= 0 {
		return fmt.Errorf("noc: model %q cannot build any feasible link", s.model.Name())
	}
	capacity := float64(s.spec.DataWidth) * s.model.Tech().Clock
	s.routes = make([][]int, len(s.spec.Flows))

	// linkBetween finds an existing link a→b with spare capacity.
	linkBetween := func(a, b int, bw float64) int {
		for li := range s.links {
			l := &s.links[li]
			if l.From != a || l.To != b {
				continue
			}
			used := 0.0
			for _, fi := range l.FlowIdx {
				used += s.spec.Flows[fi].Bandwidth
			}
			if used+bw <= capacity {
				return li
			}
		}
		return -1
	}

	for fi, f := range s.spec.Flows {
		if err := ctx.Err(); err != nil {
			return err
		}
		src, dst := s.coreID[f.Src], s.coreID[f.Dst]
		if f.Bandwidth > capacity {
			return fmt.Errorf("noc: flow %d (%s→%s) bandwidth %g exceeds link capacity %g", fi, f.Src, f.Dst, f.Bandwidth, capacity)
		}
		// Waypoints along the L-shaped route, split so every segment
		// fits the wire-length limit.
		hops := s.waypoints(src, dst, maxLen)
		if len(hops)-1 > maxHops {
			return fmt.Errorf("noc: flow %d needs %d hops, exceeding the %d-hop budget — wire-length limit %.2fmm too tight for distance %.2fmm",
				fi, len(hops)-1, maxHops, maxLen*1e3, s.dist(src, dst)*1e3)
		}
		var route []int
		for h := 0; h+1 < len(hops); h++ {
			a, b := hops[h], hops[h+1]
			if li := linkBetween(a, b, f.Bandwidth); li >= 0 {
				s.links[li].FlowIdx = append(s.links[li].FlowIdx, fi)
				route = append(route, li)
				continue
			}
			li, err := s.addLink(ctx, a, b, []int{fi})
			if err != nil {
				return fmt.Errorf("noc: flow %d: %w", fi, err)
			}
			route = append(route, li)
		}
		s.routes[fi] = route
	}
	return nil
}

// waypoints returns the node-ID sequence src, relays..., dst with
// relay routers inserted along the x-then-y Manhattan route so that no
// segment exceeds maxLen. Relay positions are shared between flows
// via position quantization.
func (s *synthesizer) waypoints(src, dst int, maxLen float64) []int {
	total := s.dist(src, dst)
	if total <= maxLen {
		return []int{src, dst}
	}
	nSeg := int(math.Ceil(total / maxLen))
	a, b := &s.nodes[src], &s.nodes[dst]
	// Walk the L-shaped path (x first, then y) and emit evenly
	// spaced relay positions.
	dx, dy := b.X-a.X, b.Y-a.Y
	lx := math.Abs(dx)
	pointAt := func(d float64) (x, y float64) {
		if d <= lx {
			return a.X + math.Copysign(d, dx), a.Y
		}
		return b.X, a.Y + math.Copysign(d-lx, dy)
	}
	ids := []int{src}
	for k := 1; k < nSeg; k++ {
		x, y := pointAt(total * float64(k) / float64(nSeg))
		ids = append(ids, s.routerAt(x, y))
	}
	return append(ids, dst)
}

// routerAt returns an existing router within a small snap radius of
// (x,y) or creates one — so parallel long-distance flows share relay
// stations. Routers already near their radix limit are not reused.
func (s *synthesizer) routerAt(x, y float64) int {
	snap := 50e-6 // 50 µm snap radius
	for i := range s.nodes {
		n := &s.nodes[i]
		if n.Kind == RouterNode && math.Abs(n.X-x)+math.Abs(n.Y-y) <= snap &&
			s.portCount(n.ID) <= s.router.MaxPorts-2 {
			return n.ID
		}
	}
	return s.addRouter(x, y)
}

// portCount counts the links touching a node.
func (s *synthesizer) portCount(id int) int {
	p := 0
	for i := range s.links {
		if s.links[i].From == id || s.links[i].To == id {
			p++
		}
	}
	return p
}

// linkCost is the power (W) attributed to a link at its current
// traffic.
func (s *synthesizer) linkCost(l *Link) float64 {
	bw := 0.0
	for _, fi := range l.FlowIdx {
		bw += s.spec.Flows[fi].Bandwidth
	}
	util := math.Min(1, bw/(float64(s.spec.DataWidth)*s.model.Tech().Clock))
	return l.Design.DynAt(util) + l.Design.Leakage
}

// mergeCandidate describes one evaluated improvement move.
type mergeCandidate struct {
	l1, l2 int
	saving float64
	rx, ry float64
	shared sharedEnd
}

type sharedEnd int

const (
	sharedDst sharedEnd = iota
	sharedSrc
)

// minMergeSaving is the smallest power saving worth a merge (0.1 µW).
const minMergeSaving = 1e-7

// mergeLoop greedily applies the best power-saving channel merge until
// no candidate improves the network, checking for cancellation between
// iterations (and, through bestMerge's fan-out, between candidate
// rows).
func (s *synthesizer) mergeLoop(ctx context.Context) error {
	for iter := 0; iter < maxMergeIters; iter++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		best, found, err := s.bestMerge(ctx)
		if err != nil {
			return err
		}
		if !found {
			return nil
		}
		s.applyMerge(best)
		metMergesApplied.Inc()
	}
	return nil
}

// bestMerge scores every candidate merge and returns the best one.
// The link-pair space is fanned out across the worker pool by first
// index: evalMerge only reads the synthesis state and the design
// cache is concurrency-safe, so rows evaluate independently. Each row
// keeps its serial-order best (strict improvement over later j and
// shared-end candidates) and the rows are reduced in ascending order
// with the same strict comparison, so the selected candidate is
// bit-identical to the serial double loop's.
func (s *synthesizer) bestMerge(ctx context.Context) (mergeCandidate, bool, error) {
	n := len(s.links)
	rowBest := make([]mergeCandidate, n)
	rowFound := make([]bool, n)
	// The per-row closure never fails on its own; the fan-out's only
	// error source is cancellation (checked at each row claim).
	err := pool.ForEachCtx(ctx, s.opts.Workers, n, func(i int) error {
		best := mergeCandidate{saving: minMergeSaving}
		found := false
		for j := i + 1; j < n; j++ {
			for _, se := range []sharedEnd{sharedDst, sharedSrc} {
				if c, ok := s.evalMerge(i, j, se); ok && c.saving > best.saving {
					best, found = c, true
				}
			}
		}
		rowBest[i], rowFound[i] = best, found
		return nil
	})
	if err != nil {
		return mergeCandidate{}, false, err
	}
	best := mergeCandidate{saving: minMergeSaving}
	found := false
	for i := 0; i < n; i++ {
		if rowFound[i] && rowBest[i].saving > best.saving {
			best, found = rowBest[i], true
		}
	}
	return best, found, nil
}

// evalMerge scores merging links i and j (which must share the chosen
// endpoint) through a new router at the bandwidth-weighted centroid of
// their distinct endpoints.
func (s *synthesizer) evalMerge(i, j int, se sharedEnd) (mergeCandidate, bool) {
	l1, l2 := &s.links[i], &s.links[j]
	var shared, e1, e2 int
	switch se {
	case sharedDst:
		if l1.To != l2.To {
			return mergeCandidate{}, false
		}
		shared, e1, e2 = l1.To, l1.From, l2.From
	default:
		if l1.From != l2.From {
			return mergeCandidate{}, false
		}
		shared, e1, e2 = l1.From, l1.To, l2.To
	}
	if e1 == e2 {
		return mergeCandidate{}, false
	}
	// Hop budget: every flow on either link gains one hop.
	for _, li := range []int{i, j} {
		for _, fi := range s.links[li].FlowIdx {
			if len(s.routes[fi])+1 > maxHops {
				return mergeCandidate{}, false
			}
		}
	}
	// Capacity on the shared bus.
	bw1, bw2 := 0.0, 0.0
	for _, fi := range l1.FlowIdx {
		bw1 += s.spec.Flows[fi].Bandwidth
	}
	for _, fi := range l2.FlowIdx {
		bw2 += s.spec.Flows[fi].Bandwidth
	}
	capacity := float64(s.spec.DataWidth) * s.model.Tech().Clock
	if bw1+bw2 > capacity {
		return mergeCandidate{}, false
	}
	// Router position: bandwidth-weighted centroid of the distinct
	// endpoints. Moving a bit through a wire costs the same energy
	// per millimeter whether the bus is shared or not, so the merge's
	// win is eliminating the duplicated corridor (leakage, area) —
	// the router belongs where the two spokes are shortest.
	n1, n2, ns := &s.nodes[e1], &s.nodes[e2], &s.nodes[shared]
	rx := (n1.X*bw1 + n2.X*bw2) / (bw1 + bw2)
	ry := (n1.Y*bw1 + n2.Y*bw2) / (bw1 + bw2)

	maxLen := s.model.MaxLength()
	d1 := math.Abs(n1.X-rx) + math.Abs(n1.Y-ry)
	d2 := math.Abs(n2.X-rx) + math.Abs(n2.Y-ry)
	ds := math.Abs(ns.X-rx) + math.Abs(ns.Y-ry)
	const minLen = 20e-6
	if d1 > maxLen || d2 > maxLen || ds > maxLen || d1 < minLen || d2 < minLen || ds < minLen {
		return mergeCandidate{}, false
	}
	des1, err := s.model.Design(d1)
	if err != nil {
		return mergeCandidate{}, false
	}
	des2, err := s.model.Design(d2)
	if err != nil {
		return mergeCandidate{}, false
	}
	desS, err := s.model.Design(ds)
	if err != nil {
		return mergeCandidate{}, false
	}
	util := func(bw float64) float64 { return math.Min(1, bw/capacity) }
	newCost := des1.DynAt(util(bw1)) + des1.Leakage +
		des2.DynAt(util(bw2)) + des2.Leakage +
		desS.DynAt(util(bw1+bw2)) + desS.Leakage +
		s.router.Power(bw1+bw2, 3)
	oldCost := s.linkCost(l1) + s.linkCost(l2)
	saving := oldCost - newCost
	if saving <= 0 {
		return mergeCandidate{}, false
	}
	return mergeCandidate{l1: i, l2: j, saving: saving, rx: rx, ry: ry, shared: se}, true
}

// applyMerge rewires the two links through a new router. Link slots
// l1 and l2 are reused for the spoke links and a new link is appended
// for the shared bus, so existing link indices in routes stay valid.
func (s *synthesizer) applyMerge(c mergeCandidate) {
	r := s.addRouter(c.rx, c.ry)
	l1, l2 := &s.links[c.l1], &s.links[c.l2]

	var shared int
	if c.shared == sharedDst {
		shared = l1.To
	} else {
		shared = l1.From
	}
	flows := append(append([]int(nil), l1.FlowIdx...), l2.FlowIdx...)
	sort.Ints(flows)

	redesign := func(l *Link, from, to int) {
		d, err := s.model.Design(s.dist(from, to))
		if err != nil {
			// evalMerge already vetted these lengths; a failure here
			// is a programming error.
			panic(fmt.Sprintf("noc: vetted design failed: %v", err))
		}
		l.From, l.To, l.Design = from, to, d
	}

	var sharedLinkIdx int
	if c.shared == sharedDst {
		// e1→r, e2→r, r→shared.
		redesign(l1, l1.From, r)
		redesign(l2, l2.From, r)
		d, err := s.model.Design(s.dist(r, shared))
		if err != nil {
			panic(fmt.Sprintf("noc: vetted design failed: %v", err))
		}
		sharedLinkIdx = len(s.links)
		s.links = append(s.links, Link{From: r, To: shared, Design: d, FlowIdx: flows})
		// Routes: insert the shared link after the spoke.
		for _, fi := range flows {
			s.routes[fi] = insertAfter(s.routes[fi], indexOf(s.routes[fi], c.l1, c.l2), sharedLinkIdx)
		}
	} else {
		// shared→r, then r→e1, r→e2.
		redesign(l1, r, l1.To)
		redesign(l2, r, l2.To)
		d, err := s.model.Design(s.dist(shared, r))
		if err != nil {
			panic(fmt.Sprintf("noc: vetted design failed: %v", err))
		}
		sharedLinkIdx = len(s.links)
		s.links = append(s.links, Link{From: shared, To: r, Design: d, FlowIdx: flows})
		for _, fi := range flows {
			s.routes[fi] = insertBefore(s.routes[fi], indexOf(s.routes[fi], c.l1, c.l2), sharedLinkIdx)
		}
	}
}

// indexOf returns the position of the first of a or b present in
// route.
func indexOf(route []int, a, b int) int {
	for i, li := range route {
		if li == a || li == b {
			return i
		}
	}
	panic("noc: merged link missing from route")
}

// insertAfter inserts v after position i.
func insertAfter(route []int, i, v int) []int {
	route = append(route, 0)
	copy(route[i+2:], route[i+1:])
	route[i+1] = v
	return route
}

// insertBefore inserts v before position i.
func insertBefore(route []int, i, v int) []int {
	route = append(route, 0)
	copy(route[i+1:], route[i:])
	route[i] = v
	return route
}
