package decoder

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"tiscc/internal/frame"
	"tiscc/internal/hardware"
	"tiscc/internal/noise"
	"tiscc/internal/orqcs"
	"tiscc/internal/pauli"
	"tiscc/internal/telemetry"
)

// decodeFullScan is the reference growth loop: every round scans every
// edge of the graph, with two finds per edge, and grows each edge's
// edgeState.base directly. It is the oracle for the event-driven growth in
// decode, which must reproduce its parity, its grown-edge order and its
// counters exactly. It clears the whole scratch first, so it never relies
// on the decoder's O(touched) reset. Rounds in which no edge completes
// change nothing but the growth, so one scan before each round counts
// them and skips them in one step, with the rounds, frontier and
// maxRounds fallback they would have given.
func (g *Graph) decodeFullScan(sc *scratch) bool {
	copy(sc.parent, g.protoParent)
	clear(sc.parity)
	clear(sc.bnd)
	clear(sc.defect)
	clear(sc.es)
	clear(sc.visited)
	clear(sc.inForest)
	sc.grownList = sc.grownList[:0]
	sc.order = sc.order[:0]
	sc.nodes = sc.nodes[:0]
	odd := 0
	for _, d := range sc.defects {
		sc.defect[d] = true
		sc.parity[d] = 1
		odd++
	}
	sc.tel.Add(ctrClustersSeeded, uint64(odd))
	sc.bnd[g.boundary] = true

	find := func(x int32) int32 {
		for sc.parent[x] != x {
			sc.parent[x] = sc.parent[sc.parent[x]] // path halving
			x = sc.parent[x]
		}
		return x
	}
	// rate is how many active clusters an ungrown edge grows from.
	rate := func(e *Edge) int32 {
		ru, rv := find(e.U), find(e.V)
		inc := int32(0)
		if sc.active(ru) {
			inc++
		}
		if rv != ru && sc.active(rv) {
			inc++
		}
		return inc
	}
	maxRounds := int(g.maxGrow) * (int(g.boundary) + 1)
	rounds, peakFrontier := uint64(0), uint64(0)
	for round := 0; odd > 0; round++ {
		if round > maxRounds {
			sc.tel.Inc(ctrRawFallbacks)
			sc.finishDecode(rounds, peakFrontier)
			return false
		}
		// Skip the quiet rounds before the next completion, at most up to
		// round maxRounds, which then runs as a full round.
		quiet, growing := maxRounds-round, uint64(0)
		for ei := range g.edges {
			if e := &g.edges[ei]; !sc.es[ei].grown {
				if inc := rate(e); inc > 0 {
					growing++
					quiet = min(quiet, int((e.Len-sc.es[ei].base+inc-1)/inc-1))
				}
			}
		}
		if growing > 0 && quiet > 0 {
			for ei := range g.edges {
				if !sc.es[ei].grown {
					sc.es[ei].base += int32(quiet) * rate(&g.edges[ei])
				}
			}
			round += quiet
			rounds += uint64(quiet)
			peakFrontier = max(peakFrontier, growing)
		}
		rounds++
		frontier := uint64(0)
		progressed := false
		for ei := range g.edges {
			if sc.es[ei].grown {
				continue
			}
			e := &g.edges[ei]
			inc := rate(e)
			if inc == 0 {
				continue
			}
			ru, rv := find(e.U), find(e.V)
			frontier++
			progressed = true
			sc.es[ei].base += inc
			if sc.es[ei].base < e.Len {
				continue
			}
			sc.es[ei].grown = true
			sc.grownList = append(sc.grownList, int32(ei))
			if ru == rv {
				continue
			}
			before := 0
			if sc.active(ru) {
				before++
			}
			if sc.active(rv) {
				before++
			}
			if ru > rv {
				ru, rv = rv, ru
			}
			sc.parent[rv] = ru
			sc.parity[ru] ^= sc.parity[rv]
			if sc.bnd[rv] {
				sc.bnd[ru] = true
			}
			sc.tel.Inc(ctrMerges)
			after := 0
			if sc.active(ru) {
				after++
			}
			odd += after - before
		}
		if frontier > peakFrontier {
			peakFrontier = frontier
		}
		if !progressed {
			sc.tel.Inc(ctrRawFallbacks)
			sc.finishDecode(rounds, peakFrontier)
			return false
		}
	}
	sc.tel.Add(ctrEdgesGrown, uint64(len(sc.grownList)))
	sc.finishDecode(rounds, peakFrontier)
	return g.peelFullScan(sc)
}

// peelFullScan is the reference peel: its forest BFS scans every node's
// whole adjacency, the boundary node's included. peel must build the same
// forest (BFS order, tree parents and tree edges) and return the same
// parity.
func (g *Graph) peelFullScan(sc *scratch) bool {
	for _, ei := range sc.grownList {
		for _, v := range [2]int32{g.edges[ei].U, g.edges[ei].V} {
			if !sc.inForest[v] {
				sc.inForest[v] = true
				sc.nodes = append(sc.nodes, v)
			}
		}
	}
	bfs := func(root int32) {
		if sc.visited[root] {
			return
		}
		sc.visited[root] = true
		sc.fparent[root] = -1
		sc.fedge[root] = -1
		start := len(sc.order)
		sc.order = append(sc.order, root)
		for i := start; i < len(sc.order); i++ {
			v := sc.order[i]
			for _, ei := range g.adj[g.adjStart[v]:g.adjStart[v+1]] {
				if s := &sc.es[ei]; !s.grown || s.tree {
					continue
				}
				e := &g.edges[ei]
				w := e.U
				if w == v {
					w = e.V
				}
				if w == v || sc.visited[w] {
					continue
				}
				sc.es[ei].tree = true
				sc.visited[w] = true
				sc.fparent[w] = v
				sc.fedge[w] = ei
				sc.order = append(sc.order, w)
			}
		}
	}
	if sc.inForest[g.boundary] {
		bfs(g.boundary)
	}
	for _, v := range sc.nodes {
		bfs(v)
	}
	obs := false
	for i := len(sc.order) - 1; i >= 0; i-- {
		v := sc.order[i]
		if sc.fparent[v] < 0 || !sc.defect[v] {
			continue
		}
		if g.edges[sc.fedge[v]].Obs {
			obs = !obs
		}
		p := sc.fparent[v]
		sc.defect[p] = !sc.defect[p]
		sc.defect[v] = false
	}
	return obs
}

// ufPair decodes the same syndromes through the event-driven decoder and the
// full-scan oracle, each with its own scratch and telemetry.
type ufPair struct {
	g               *Graph
	fast, ref       *scratch
	fastMet, refMet *telemetry.Set
}

func newUFPair(g *Graph) *ufPair {
	p := &ufPair{g: g, fast: g.newScratch(), ref: g.newScratch(),
		fastMet: telemetry.NewSet(DecoderSchema), refMet: telemetry.NewSet(DecoderSchema)}
	p.fast.tel, p.ref.tel = p.fastMet.NewShard(), p.refMet.NewShard()
	return p
}

// decode returns both decoders' correction parities for the fired
// detectors in defects (sorted ascending), failing t if their grown-edge
// orders differ. An empty syndrome needs no correction.
func (p *ufPair) decode(t *testing.T, defects []int32) (fast, ref bool) {
	t.Helper()
	if len(defects) == 0 {
		return false, false
	}
	p.fast.defects = append(p.fast.defects[:0], defects...)
	p.ref.defects = append(p.ref.defects[:0], defects...)
	fast, ref = p.g.decode(p.fast), p.g.decodeFullScan(p.ref)
	if !equalIDs(p.fast.grownList, p.ref.grownList) {
		t.Fatalf("defects %v: event-driven decoder grew edges %v, full scan %v", defects, p.fast.grownList, p.ref.grownList)
	}
	if !equalIDs(p.fast.order, p.ref.order) {
		t.Fatalf("defects %v: peeling forest visits %v, full scan %v", defects, p.fast.order, p.ref.order)
	}
	for _, v := range p.fast.order {
		if p.fast.fparent[v] != p.ref.fparent[v] || p.fast.fedge[v] != p.ref.fedge[v] {
			t.Fatalf("defects %v: node %d hangs from node %d by edge %d, full scan from %d by %d",
				defects, v, p.fast.fparent[v], p.fast.fedge[v], p.ref.fparent[v], p.ref.fedge[v])
		}
	}
	return fast, ref
}

// decodeFast returns the event-driven decoder's correction parity alone.
func (p *ufPair) decodeFast(defects []int32) bool {
	if len(defects) == 0 {
		return false
	}
	p.fast.defects = append(p.fast.defects[:0], defects...)
	return p.g.decode(p.fast)
}

// checkTelemetry fails t unless both decoders counted the same growth
// rounds, merges, grown edges and fallbacks, with the same per-shot
// histograms.
func (p *ufPair) checkTelemetry(t *testing.T, what string) {
	t.Helper()
	a, b := p.fastMet.Snapshot(), p.refMet.Snapshot()
	if !reflect.DeepEqual(a.Counters, b.Counters) {
		t.Fatalf("%s: event-driven counters %v, full scan %v (%v)", what, a.Counters, b.Counters, DecoderSchema.Counters)
	}
	for _, name := range DecoderSchema.Hists {
		if ha, hb := a.Hist(name), b.Hist(name); *ha != *hb {
			t.Fatalf("%s: histogram %s: event-driven %+v, full scan %+v", what, name, *ha, *hb)
		}
	}
}

// syndromeOfEdges returns the detectors fired by the edges in set and the
// observable parity of the set.
func syndromeOfEdges(g *Graph, set []int) (defects []int32, obs bool) {
	fired := map[int32]bool{}
	for _, ei := range set {
		e := g.edges[ei]
		fired[e.U] = !fired[e.U]
		if e.V != g.boundary {
			fired[e.V] = !fired[e.V]
		}
		obs = obs != e.Obs
	}
	for d, on := range fired {
		if on {
			defects = append(defects, d)
		}
	}
	sort.Slice(defects, func(i, j int) bool { return defects[i] < defects[j] })
	return defects, obs
}

// mwpm is an exact minimum-weight matching decoder for syndromes of a few
// defects, the oracle the weight-2 triage judges union-find against. Path
// weights are the union-find growth lengths (Edge.Len); each defect pairs
// with another defect or with the boundary, and paths end at the boundary
// but never pass through it.
type mwpm struct {
	g *Graph
	// dist[s][2·v+par] is the shortest path length from detector s to node
	// v with observable parity par.
	dist [][]int64
}

const mwpmInf = int64(1) << 60

func newMWPM(g *Graph) *mwpm {
	o := &mwpm{g: g, dist: make([][]int64, g.boundary)}
	for s := range o.dist {
		o.dist[s] = o.shortest(int32(s))
	}
	return o
}

// shortest is Dijkstra from src over (node, observable parity) states.
func (o *mwpm) shortest(src int32) []int64 {
	g := o.g
	dist := make([]int64, 2*(g.boundary+1))
	done := make([]bool, len(dist))
	for i := range dist {
		dist[i] = mwpmInf
	}
	dist[2*src] = 0
	for {
		u := -1
		for v, d := range dist {
			if !done[v] && d < mwpmInf && (u < 0 || d < dist[u]) {
				u = v
			}
		}
		if u < 0 {
			return dist
		}
		done[u] = true
		node, par := int32(u/2), u%2
		if node == g.boundary {
			continue
		}
		for _, ei := range g.adj[g.adjStart[node]:g.adjStart[node+1]] {
			e := &g.edges[ei]
			next := e.U
			if next == node {
				next = e.V
			}
			v := 2*int(next) + par
			if e.Obs {
				v ^= 1
			}
			dist[v] = min(dist[v], dist[u]+int64(e.Len))
		}
	}
}

// parities reports which observable parities the minimum-weight
// corrections of defects have: one of them, or both on a tie. It tries
// every pairing, boundary matches included.
func (o *mwpm) parities(defects []int32) (zero, one bool) {
	best := mwpmInf
	var match func(rest []int32, cost int64, par int)
	match = func(rest []int32, cost int64, par int) {
		if len(rest) == 0 {
			if cost < best {
				best, zero, one = cost, false, false
			}
			if cost == best {
				zero, one = zero || par == 0, one || par == 1
			}
			return
		}
		da := o.dist[rest[0]]
		for p := 0; p < 2; p++ {
			if d := da[2*o.g.boundary+int32(p)]; d < mwpmInf {
				match(rest[1:], cost+d, par^p)
			}
			for j := 1; j < len(rest); j++ {
				if d := da[2*rest[j]+int32(p)]; d < mwpmInf {
					others := slices.Concat(rest[1:j], rest[j+1:])
					match(others, cost+d, par^p)
				}
			}
		}
	}
	match(defects, 0, 0)
	return zero, one
}

// TestFrontierGrowthMatchesFullScan decodes random syndromes of varied
// density — error chains of a few to many random edges, and uniformly
// random detector sets from single defects to half the detectors — through
// the event-driven decoder and the full-scan oracle on the memory (d=3..9)
// and surgery (d=3,5) graphs of both bases under both noise models, and
// requires the same parity, grown-edge order, counters and histograms. It
// then does the same for frame-sampled syndromes, whose clustered defects
// are where merges land in the middle of a round: memory d=9 under
// depolarizing 1e-3 and 1e-2, and surgery d=5 under depolarizing 5e-5.
func TestFrontierGrowthMatchesFullScan(t *testing.T) {
	models := []noise.Model{noise.Depolarizing(1e-3), noise.PaperTable5(hardware.Default())}
	perGraph := 300
	if testing.Short() || raceEnabled {
		perGraph = 40
	}
	type target struct {
		name string
		det  *Detectors
		sch  func(noise.Model) *noise.Schedule
	}
	var targets []target
	for _, basis := range []pauli.Kind{pauli.Z, pauli.X} {
		for _, d := range []int{3, 5, 7, 9} {
			mem := mustMemory(t, d, d, basis)
			targets = append(targets, target{fmt.Sprintf("memory-d%d-%v", d, basis), mustDetectors(t, mem),
				func(m noise.Model) *noise.Schedule { return noise.Compile(m, mem.Prog) }})
		}
		for _, d := range []int{3, 5} {
			s := mustSurgery(t, d, 1, d, 1, basis)
			targets = append(targets, target{fmt.Sprintf("surgery-d%d-%v", d, basis), mustSurgeryDetectors(t, s),
				func(m noise.Model) *noise.Schedule { return noise.Compile(m, s.Prog) }})
		}
	}
	for _, tg := range targets {
		for _, m := range models {
			t.Run(tg.name+"-"+m.Name, func(t *testing.T) {
				g := mustGraph(t, tg.det, tg.sch(m))
				p := newUFPair(g)
				rng := rand.New(rand.NewSource(int64(len(g.edges))))
				nDet := len(g.det.Dets)
				densities := []float64{0.005, 0.02, 0.05, 0.2, 0.5}
				for i := 0; i < perGraph; i++ {
					var defects []int32
					if i%2 == 0 {
						set := make([]int, 1+rng.Intn(1+len(g.edges)/(4<<(i%8))))
						for k := range set {
							set[k] = rng.Intn(len(g.edges))
						}
						defects, _ = syndromeOfEdges(g, set)
					} else {
						rho := densities[(i/2)%len(densities)]
						for d := 0; d < nDet; d++ {
							if rng.Float64() < rho {
								defects = append(defects, int32(d))
							}
						}
					}
					if fast, ref := p.decode(t, defects); fast != ref {
						t.Fatalf("syndrome %d (%d defects): event-driven parity %v, full scan %v", i, len(defects), fast, ref)
					}
					p.checkTelemetry(t, fmt.Sprintf("syndrome %d", i))
				}
				if p.fastMet.Snapshot().Counter("raw_fallbacks") != 0 {
					t.Fatal("a compiled graph fell back to the raw readout")
				}
			})
		}
	}
	batches := 4
	if testing.Short() || raceEnabled {
		batches = 1
	}
	type sampled struct {
		name string
		prog *orqcs.Program
		det  *Detectors
		p    float64
	}
	var samples []sampled
	for _, basis := range []pauli.Kind{pauli.Z, pauli.X} {
		mem := mustMemory(t, 9, 9, basis)
		det := mustDetectors(t, mem)
		for _, p := range []float64{1e-3, 1e-2} {
			samples = append(samples, sampled{fmt.Sprintf("memory-d9-%v", basis), mem.Prog, det, p})
		}
		s := mustSurgery(t, 5, 1, 5, 1, basis)
		samples = append(samples, sampled{fmt.Sprintf("surgery-d5-%v", basis), s.Prog, mustSurgeryDetectors(t, s), 5e-5})
	}
	for _, sm := range samples {
		m := noise.Depolarizing(sm.p)
		t.Run(fmt.Sprintf("sampled-%s-%s", sm.name, m.Name), func(t *testing.T) {
			sched := noise.Compile(m, sm.prog)
			g := mustGraph(t, sm.det, sched)
			p := newUFPair(g)
			for i, defects := range sampledSyndromes(t, g, sched, batches) {
				if fast, ref := p.decode(t, defects); fast != ref {
					t.Fatalf("shot %d (%d defects): event-driven parity %v, full scan %v", i, len(defects), fast, ref)
				}
				p.checkTelemetry(t, fmt.Sprintf("shot %d", i))
			}
		})
	}
	// A component with no boundary edge and an odd defect count cannot be
	// neutralized: both decoders give up after the same rounds.
	t.Run("stuck", func(t *testing.T) {
		g := &Graph{det: &Detectors{Dets: make([]Detector, 5)}, boundary: 5}
		edges := []Edge{{U: 0, V: 5, Len: 6}, {U: 1, V: 2, Len: 4}, {U: 2, V: 3, Len: 10}, {U: 3, V: 4, Len: 2}}
		g.finish(edges)
		p := newUFPair(g)
		for _, defects := range [][]int32{{2}, {1, 3, 4}, {0, 2}, {4}} {
			if fast, ref := p.decode(t, defects); fast != ref {
				t.Fatalf("defects %v: event-driven parity %v, full scan %v", defects, fast, ref)
			}
			p.checkTelemetry(t, fmt.Sprint(defects))
		}
		if got := p.fastMet.Snapshot().Counter("raw_fallbacks"); got != 4 {
			t.Fatalf("raw_fallbacks %d, want 4", got)
		}
	})
}

// FuzzFrontierGrowth builds a small graph from the fuzz input and decodes
// a few syndromes on it through the event-driven decoder and the full-scan
// oracle, which must agree on parity, grown-edge order, counters and
// histograms. The input's first byte sets the detector count (1..16) and
// the second the edge count; each edge takes three bytes, two endpoints
// (the boundary included) and a growth length of 1..8, so lengths tie
// often, self-loops and duplicate edges between one node pair occur, and
// components can lack a boundary edge. The remaining bytes are syndromes,
// one detector bitmask of two bytes each, decoded in turn on one scratch.
func FuzzFrontierGrowth(f *testing.F) {
	f.Add([]byte{4, 4, 0, 4, 2, 1, 2, 2, 2, 3, 2, 3, 4, 6, 0x0f, 0, 0x05, 0, 0x02, 0})
	f.Add([]byte{5, 4, 0, 5, 6, 1, 2, 4, 2, 3, 10, 3, 4, 2, 0x04, 0, 0x1a, 0, 0x05, 0, 0x10, 0})
	f.Add([]byte{3, 6, 0, 1, 1, 0, 1, 1, 1, 2, 2, 1, 2, 2, 2, 3, 1, 0, 3, 1, 0x07, 0, 0x03, 0, 0x01, 0})
	f.Add([]byte{8, 10, 0, 1, 3, 1, 2, 3, 2, 3, 3, 3, 8, 3, 4, 5, 5, 5, 6, 5, 6, 7, 5, 7, 8, 5, 0, 2, 7, 4, 7, 1, 0xff, 0, 0x81, 0, 0x3c, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		n := 1 + int(data[0])%16
		m := int(data[1]) % 49
		data = data[2:]
		edges := make([]Edge, 0, m)
		for ; m > 0 && len(data) >= 3; m, data = m-1, data[3:] {
			edges = append(edges, Edge{U: int32(data[0]) % int32(n+1), V: int32(data[1]) % int32(n+1), Len: 1 + int32(data[2])%8})
		}
		g := &Graph{det: &Detectors{Dets: make([]Detector, n)}, boundary: int32(n)}
		g.finish(edges)
		p := newUFPair(g)
		for k := 0; k < 8 && len(data) >= 2; k, data = k+1, data[2:] {
			mask := int(data[0]) | int(data[1])<<8
			var defects []int32
			for d := range n {
				if mask>>d&1 == 1 {
					defects = append(defects, int32(d))
				}
			}
			if fast, ref := p.decode(t, defects); fast != ref {
				t.Fatalf("edges %+v, defects %v: event-driven parity %v, full scan %v", edges, defects, fast, ref)
			}
			p.checkTelemetry(t, fmt.Sprintf("edges %+v, defects %v", edges, defects))
		}
	})
}

// sampledSyndromes returns the fired detectors of every shot of the first
// batches 64-shot frame batches of sched (seed 1), empty syndromes included.
func sampledSyndromes(t *testing.T, g *Graph, sched *noise.Schedule, batches int) [][]int32 {
	t.Helper()
	sim, err := frame.New(sched.Program(), sched)
	if err != nil {
		t.Fatal(err)
	}
	batch := sim.NewBatch()
	fired := make([]uint64, len(g.det.Dets))
	var out [][]int32
	for b := range batches {
		batch.Run(64*b, 64, 1)
		g.det.Fire(batch.RecordWords(), batch.Planes().Lanes, fired)
		for lane := range 64 {
			var defects []int32
			for d, w := range fired {
				if w>>lane&1 == 1 {
					defects = append(defects, int32(d))
				}
			}
			out = append(out, defects)
		}
	}
	return out
}

// TestExhaustiveWeightTwo decodes every single edge and every pair of edges
// of the d=5 memory graphs (both bases, both noise models) through the
// event-driven decoder and the full-scan oracle, requires them to agree, and
// pins how many pairs each miscorrects (decoded parity differs from the
// pair's observable parity). A distance-5 code corrects any two faults
// under minimum-weight decoding with unit weights; the weighted union-find
// growth does not for some Z-basis depolarizing pairs. An exact
// minimum-weight matching on the same edge lengths triages each of them:
// the matching also miscorrects, it ties between both parities, or only
// union-find is wrong. The pins say the edge weights imply every one of
// these miscorrections (the matching is wrong or tied on all of them), and
// that no pair fools the matching alone. The full-scan oracle is ~25×
// slower than the event-driven decoder on these sparse syndromes, so short
// and race runs check it on every 97th pair only and skip the triage; the
// pinned miscorrection counts always cover every pair.
func TestExhaustiveWeightTwo(t *testing.T) {
	oracleStride := 1
	if testing.Short() || raceEnabled {
		oracleStride = 97
	}
	wantMiscorrected := map[string]int{
		"Z/depolarizing(0.001)": 70, "Z/table5": 0, "X/depolarizing(0.001)": 0, "X/table5": 0,
	}
	// The triage of the miscorrected pairs: the matching is also wrong,
	// ties, or is right; and pairs only the matching gets wrong.
	type triage struct{ bothWrong, tie, onlyUF, onlyMWPM int }
	wantTriage := map[string]triage{"Z/depolarizing(0.001)": {56, 14, 0, 0}}
	models := []noise.Model{noise.Depolarizing(1e-3), noise.PaperTable5(hardware.Default())}
	for _, basis := range []pauli.Kind{pauli.Z, pauli.X} {
		mem := mustMemory(t, 5, 5, basis)
		det := mustDetectors(t, mem)
		for _, m := range models {
			name := fmt.Sprintf("%v/%s", basis, m.Name)
			t.Run(name, func(t *testing.T) {
				g := mustGraph(t, det, noise.Compile(m, mem.Prog))
				p := newUFPair(g)
				mw := newMWPM(g)
				cases := 0
				var got triage
				miscorrected := func(set ...int) bool {
					defects, obs := syndromeOfEdges(g, set)
					cases++
					var fast bool
					if cases%oracleStride != 0 {
						fast = p.decodeFast(defects)
					} else {
						var ref bool
						if fast, ref = p.decode(t, defects); fast != ref {
							t.Fatalf("edges %v: event-driven parity %v, full scan %v", set, fast, ref)
						}
					}
					if oracleStride == 1 {
						zero, one := mw.parities(defects)
						switch {
						case zero && one:
							if fast != obs {
								got.tie++
							}
						case fast != obs && one != obs:
							got.bothWrong++
						case fast != obs:
							got.onlyUF++
						case one != obs:
							got.onlyMWPM++
						}
					}
					return fast != obs
				}
				for a := range g.edges {
					if miscorrected(a) {
						t.Fatalf("single edge %d (%+v) miscorrected", a, g.edges[a])
					}
				}
				pairs, wrong := 0, 0
				for a := range g.edges {
					for b := a + 1; b < len(g.edges); b++ {
						pairs++
						if miscorrected(a, b) {
							wrong++
						}
					}
				}
				if oracleStride == 1 {
					p.checkTelemetry(t, name)
				}
				t.Logf("%s: %d edges, %d of %d pairs miscorrected; triage %+v", name, len(g.edges), wrong, pairs, got)
				if want, ok := wantMiscorrected[name]; !ok || wrong != want {
					t.Fatalf("%s: %d of %d pairs miscorrected, pinned %d", name, wrong, pairs, want)
				}
				if oracleStride == 1 && got != wantTriage[name] {
					t.Fatalf("%s: triage %+v, pinned %+v", name, got, wantTriage[name])
				}
			})
		}
	}
}
