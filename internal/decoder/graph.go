package decoder

import (
	"math"
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

	plan *plan // the plan the graph was weighed from; nil for a decoded graph

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
// union-find decoding graph: it plans the graph (the effect table, the edge
// set and the hyper decompositions; see plan) and weighs the schedule's
// probabilities along the plan, folding them in the same pass that picks
// the plan's winning variants. A graph Plans re-weighs from a kept plan is
// this one byte for byte. The graph keeps the plan's effect table for
// decoded batches to read. Edges are ordered by (u, v, obs).
func CompileGraph(d *Detectors, s *noise.Schedule) (*Graph, error) {
	pl, P, err := newPlan(d, s)
	if err != nil {
		return nil, err
	}
	return pl.graph(P), nil
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
// all are not edges; UndetectableMechanisms counts them. Every graph
// weighed from one plan has the same edge structure, so the plan runs the
// search once for all of them.
func (g *Graph) Distance() int {
	if g.plan != nil {
		return g.plan.distance(g)
	}
	return g.search()
}

// search runs Distance's breadth-first search.
func (g *Graph) search() int {
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
