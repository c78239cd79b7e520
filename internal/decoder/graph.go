package decoder

import (
	"cmp"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"tiscc/internal/noise"
	"tiscc/internal/telemetry"
)

// Edge is one decoding-graph edge: an elementary error mechanism connecting
// two detectors (or a detector and the virtual boundary node), carrying the
// merged firing probability of every fault branch with that symptom and
// whether the mechanism flips the logical observable.
type Edge struct {
	U, V int32 // node ids; V is the boundary node, numbered len(Detectors.Dets), for boundary edges
	// Len is the edge's growth length in half-edge units (even, in
	// [2, 256]): proportional to the log-likelihood weight ln((1−p)/p),
	// quantized so that union-find cluster growth can step it in integers.
	Len int32
	Obs bool
	P   float64
}

// maxEdgeLen bounds Edge.Len: the least likely edge weighs at most 128
// times the most likely one. The decoder's bucket queue spans that many
// rounds, so DecodeGraph rejects longer edges.
const maxEdgeLen = 256

// Graph is a noise model's decoding graph compiled against one memory
// experiment: detectors as nodes, elementary fault mechanisms as weighted
// edges, plus the pooled scratch state of the per-shot union-find decoder.
// Compile once per (program, model) — like the fault schedule itself — and
// share across any number of concurrent shot workers.
type Graph struct {
	det   *Detectors
	edges []Edge

	// CSR adjacency: node → incident edge indices.
	adjStart []int32
	adj      []int32

	boundary int32 // node id of the virtual boundary (== NumDetectors())

	// eff is the retained effect table decoded batches read their detector
	// words from; it binds the graph to its schedule (CheckSchedule), and
	// bound is the last schedule that passed that check.
	eff   noise.Effects
	bound atomic.Pointer[noise.Schedule]

	// Diagnostics of detector-error-model compilation.
	undetectable int // mechanisms flipping the observable with empty symptom
	undecomposed int // hyper mechanisms dropped by graphlike decomposition

	protoParent []int32
	maxGrow     int32
	met         *telemetry.Set // per-scratch decode counters (DecoderSchema)

	// Per-worker decoder scratch. The pool hands each shot the scratch its
	// P used last, with no write to memory another worker touches. It drops
	// entries at a garbage collection (and, under the race detector, at
	// random), so all keeps every scratch the graph made: a dropped idle
	// one is claimed again instead of allocated anew, and a long-lived
	// graph (a cached service artifact) registers one telemetry shard per
	// concurrent worker instead of a new one after every collection.
	pool sync.Pool
	mu   sync.Mutex // guards all
	all  []*scratch
}

// Detectors returns the detector structure the graph decodes.
func (g *Graph) Detectors() *Detectors { return g.det }

// Edges returns the compiled edge list (read-only).
func (g *Graph) Edges() []Edge { return g.edges }

// UndetectableMechanisms reports how many error mechanisms flip the logical
// observable while firing no detector: such mechanisms are invisible to any
// decoder and bound the achievable logical fidelity.
func (g *Graph) UndetectableMechanisms() int { return g.undetectable }

// UndecomposedMechanisms reports how many hyper mechanisms (more than two
// flipped detectors per stabilizer type) could not be decomposed into known
// graphlike edges and were dropped from the edge weights.
func (g *Graph) UndecomposedMechanisms() int { return g.undecomposed }

// edgeKey identifies a node pair plus observable effect during accumulation.
type edgeKey struct {
	u, v int32
	obs  bool
}

// CheckSchedule reports an error unless the graph was compiled against s:
// its effect table must cover s's fault sites with their kinds, and every
// record id its detectors and observable read must lie in s's program
// (the record-level oracles read them). It is noise.Decoder's binding
// check, which the estimator runs before sampling. Schedules are
// immutable, so the graph remembers the last one that passed and a cached
// graph checks each later request against it in O(1).
func (g *Graph) CheckSchedule(s *noise.Schedule) error {
	if g.bound.Load() == s {
		return nil
	}
	if err := g.det.CheckRecords(s.Program().NumRecords()); err != nil {
		return err
	}
	if err := g.eff.CheckSchedule(s); err != nil {
		return err
	}
	g.bound.Store(s)
	return nil
}

// mergeP combines independent firing probabilities: the edge fires when an
// odd number of its mechanisms fire.
func mergeP(a, b float64) float64 { return a + b - 2*a*b }

// CompileGraph compiles a noise schedule against a detector structure into a
// union-find decoding graph. One backward pass over the lowered instruction
// stream compiles the effect table of the detectors and the observable
// (noise.CompileEffects), the graph keeps it for decoded batches to read,
// and each fault branch's mechanism is the XOR of its components' symptoms
// in it (noise.Effects.EachMechanism). Branches flipping ≤ 2 detectors
// become edges directly, and rarer hyper mechanisms (e.g. Y-type or
// correlated two-qubit branches touching both stabilizer types) are
// decomposed per stabilizer type into the graphlike
// edges already defined by simpler branches, which keeps every component's
// observable effect exact. Edges are ordered by (u, v, obs) with a stable
// sort.
func CompileGraph(d *Detectors, s *noise.Schedule) (*Graph, error) {
	g := &Graph{det: d, boundary: int32(len(d.Dets))}
	type accum struct {
		key edgeKey
		p   float64
	}
	acc := map[edgeKey]int{} // key → index into ordered list
	var ordered []accum
	add := func(u, v int32, obs bool, p float64) {
		if u > v {
			u, v = v, u
		}
		k := edgeKey{u, v, obs}
		if i, ok := acc[k]; ok {
			ordered[i].p = mergeP(ordered[i].p, p)
			return
		}
		acc[k] = len(ordered)
		ordered = append(ordered, accum{key: k, p: p})
	}
	// knownObs records the observable effect of graphlike pairs for the
	// decomposition pass: pair → obs of the most probable variant.
	type pairInfo struct {
		obs bool
		p   float64
	}
	known := map[[2]int32]pairInfo{}
	note := func(u, v int32, obs bool, p float64) {
		if u > v {
			u, v = v, u
		}
		k := [2]int32{u, v}
		if prev, ok := known[k]; !ok || p > prev.p {
			known[k] = pairInfo{obs: obs, p: p}
		}
	}

	// Pass 1: graphlike mechanisms define the edge set.
	var hyper []noise.Mechanism
	eff, err := compileEffects(d, s)
	if err != nil {
		return nil, err
	}
	g.eff = *eff
	err = g.eff.EachMechanism(s, func(m noise.Mechanism) error {
		switch len(m.Dets) {
		case 0:
			g.undetectable++
		case 1:
			add(m.Dets[0], g.boundary, m.Obs, m.P)
			note(m.Dets[0], g.boundary, m.Obs, m.P)
		case 2:
			add(m.Dets[0], m.Dets[1], m.Obs, m.P)
			note(m.Dets[0], m.Dets[1], m.Obs, m.P)
		default:
			m.Dets = slices.Clone(m.Dets)
			hyper = append(hyper, m)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Pass 2: decompose hyper mechanisms against the known edge set.
	var comps [][2]int32
	for _, m := range hyper {
		comps = comps[:0]
		obsSum := false
		ok := true
		// Group by stabilizer type, preserving sorted order within groups.
		for _, wantX := range []bool{false, true} {
			var grp []int32
			for _, di := range m.Dets {
				if (d.Dets[di].Type == d.basis) != wantX {
					grp = append(grp, di)
				}
			}
			used := make([]bool, len(grp))
			for i := range grp {
				if used[i] {
					continue
				}
				used[i] = true
				paired := false
				for j := i + 1; j < len(grp); j++ {
					if used[j] {
						continue
					}
					if info, exists := known[[2]int32{grp[i], grp[j]}]; exists {
						used[j] = true
						comps = append(comps, [2]int32{grp[i], grp[j]})
						if info.obs {
							obsSum = !obsSum
						}
						paired = true
						break
					}
				}
				if paired {
					continue
				}
				if info, exists := known[[2]int32{grp[i], g.boundary}]; exists {
					comps = append(comps, [2]int32{grp[i], g.boundary})
					if info.obs {
						obsSum = !obsSum
					}
					continue
				}
				ok = false
			}
		}
		// A decomposition is only trusted when every component matched a
		// known edge and the components reproduce the mechanism's observable
		// effect exactly; otherwise dropping the (rare, P/15-scale) branch is
		// safer than poisoning an edge's correction parity.
		if !ok || obsSum != m.Obs {
			g.undecomposed++
			continue
		}
		for _, c := range comps {
			info := known[[2]int32{c[0], c[1]}]
			add(c[0], c[1], info.obs, m.P)
		}
	}

	if len(ordered) == 0 {
		// An empty model (ideal noise): decoding degenerates to the raw
		// readout. Keep a valid, edgeless graph.
		g.finish(nil)
		return g, nil
	}

	// Deterministic edge order (the keys are distinct, so it is total).
	slices.SortFunc(ordered, func(x, y accum) int {
		a, b := x.key, y.key
		if a.u != b.u {
			return cmp.Compare(a.u, b.u)
		}
		if a.v != b.v {
			return cmp.Compare(a.v, b.v)
		}
		switch {
		case !a.obs && b.obs:
			return -1
		case a.obs && !b.obs:
			return 1
		}
		return 0
	})
	edges := make([]Edge, len(ordered))
	minW := math.Inf(1)
	ws := make([]float64, len(ordered))
	for i, a := range ordered {
		p := a.p
		if p > 0.4999 {
			p = 0.4999
		}
		ws[i] = math.Log((1 - p) / p)
		if ws[i] < minW {
			minW = ws[i]
		}
		edges[i] = Edge{U: a.key.u, V: a.key.v, Obs: a.key.obs, P: a.p}
	}
	for i := range edges {
		// Quantize log-likelihood weights to integers (most-likely edge →
		// 16) so growth rounds stay bounded. The resolution matters: a
		// coarse grid collapses nearby weights into ties, and a tied
		// cluster-growth race can pair defects through a homologically wrong
		// (observable-flipping) edge. ×16 keeps the few-percent weight
		// margins between competing pairings of real fault schedules.
		w := int32(math.Round(16 * ws[i] / minW))
		if w < 1 {
			w = 1
		}
		edges[i].Len = 2 * min(w, maxEdgeLen/2)
	}
	g.finish(edges)
	return g, nil
}

// finish builds the adjacency CSR and scratch prototypes.
func (g *Graph) finish(edges []Edge) {
	g.edges = edges
	n := int(g.boundary) + 1
	g.adjStart = make([]int32, n+1)
	for _, e := range edges {
		g.adjStart[e.U+1]++
		g.adjStart[e.V+1]++
	}
	for i := 0; i < n; i++ {
		g.adjStart[i+1] += g.adjStart[i]
	}
	g.adj = make([]int32, g.adjStart[n])
	fill := make([]int32, n)
	copy(fill, g.adjStart[:n])
	for ei, e := range edges {
		g.adj[fill[e.U]] = int32(ei)
		fill[e.U]++
		g.adj[fill[e.V]] = int32(ei)
		fill[e.V]++
	}
	g.protoParent = make([]int32, n)
	for i := range g.protoParent {
		g.protoParent[i] = int32(i)
	}
	g.maxGrow = 2
	for _, e := range edges {
		if e.Len > g.maxGrow {
			g.maxGrow = e.Len
		}
	}
	g.met = telemetry.NewSet(DecoderSchema)
}

// Distance returns the graphlike circuit distance of the decoding graph:
// the fewest edges whose symptoms cancel while their observable effects XOR
// to one, i.e. the shortest closed walk of odd observable parity. It runs a
// breadth-first search over (node, observable-parity) states with unit edge
// weights from every node, the boundary first (where surface-code logical
// strings end), so loops that avoid the boundary are certified too. A
// search from s that reaches node v at depth a with one parity and at depth
// b with the other has found an odd closed walk of length a+b through s;
// splitting any odd walk at its midpoint shows both depths are at most half
// its length, so each search stops once its depth reaches half the best
// walk found. It returns -1 when no such walk exists (the edgeless graph of
// an ideal model). Mechanisms that flip the observable with no symptom at
// all are not edges; UndetectableMechanisms counts them.
func (g *Graph) Distance() int {
	n := int32(len(g.adjStart) - 1)
	dist := make([]int32, 2*n) // state 2·node + parity → BFS depth, −1 unseen
	for i := range dist {
		dist[i] = -1
	}
	best := int32(math.MaxInt32)
	var queue []int32
	for k := int32(0); k < n; k++ {
		s := (g.boundary + k) % n
		dist[2*s] = 0
		queue = append(queue[:0], 2*s)
		for h := 0; h < len(queue); h++ {
			st := queue[h]
			next := dist[st] + 1
			if 2*int64(next) > int64(best) {
				break // breadth-first: every later state is at least as deep
			}
			u := st >> 1
			for _, ei := range g.adj[g.adjStart[u]:g.adjStart[u+1]] {
				e := &g.edges[ei]
				v := e.U
				if v == u {
					v = e.V
				}
				to := 2*v + st&1
				if e.Obs {
					to ^= 1
				}
				if dist[to] >= 0 {
					continue
				}
				dist[to] = next
				queue = append(queue, to)
				if other := dist[to^1]; other >= 0 && next+other < best {
					best = next + other
				}
			}
		}
		for _, st := range queue {
			dist[st] = -1
		}
	}
	if best == math.MaxInt32 {
		return -1
	}
	return int(best)
}
