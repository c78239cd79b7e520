package decoder

// Union-find decoding in the style of Delfosse & Nickerson: fired detectors
// seed odd clusters, clusters grow along incident edges in half-edge units
// until they merge even or absorb the boundary, and a spanning forest of the
// grown edges is peeled leaf-first to read off the correction's observable
// parity. Decoding is a pure function of the syndrome — no randomness — so
// decoded estimates stay bit-identical for any worker count.
//
// Growth is frontier-driven: each cluster keeps a circular member list, and
// a round visits only the ungrown edges incident to the members of active
// clusters (an edge bitset walked in ascending edge index), never the rest
// of the graph or the high-degree boundary node. Between two rounds in which
// some edge completes, every frontier edge just gains its constant
// increment, so those idle rounds are applied in one step. Both keep the
// result, the grown-edge order and every counter identical to a scan of all
// edges every round (the test oracle in oracle_test.go).

import (
	"math"
	"math/bits"
	"sync/atomic"

	"tiscc/internal/noise"
	"tiscc/internal/telemetry"
)

// scratch is the per-worker decoder state: every slice is allocated once at
// full size, so a decode performs zero heap allocations. Shots with an empty
// syndrome (the common case at low physical error rates) return before
// touching any of it.
type scratch struct {
	parent []int32 // cluster union-find (node-indexed)
	parity []uint8 // root-indexed: defect-count parity of the cluster
	bnd    []bool  // root-indexed: cluster absorbed the boundary
	defect []bool  // node-indexed: detector fired (mutated during peeling)
	next   []int32 // node-indexed: circular member list of each cluster

	growth []int32  // edge-indexed: accumulated growth
	grown  []bool   // edge-indexed: fully grown
	front  []uint64 // edge bitset: the current round's growth frontier
	listed []bool   // root-indexed: cluster's edges already in front

	grownList []int32 // edges grown, in growth order
	defects   []int32 // fired detector ids
	roots     []int32 // active cluster roots of the current round
	fellBack  bool    // the decode fell back to the raw readout

	// Batch syndrome (DecodePlanes).
	fired  []uint64 // detector-indexed: lanes on which the detector fires
	firing []int32  // detectors firing on at least one lane

	// Peeling forest.
	visited  []bool
	treeUsed []bool
	fparent  []int32 // node → tree-parent node (−1 for roots)
	fedge    []int32 // node → edge to tree parent
	order    []int32 // BFS order over forest nodes
	inForest []bool
	nodes    []int32 // nodes incident to grown edges

	tel  *telemetry.Shard // single-owner decode counters (never nil)
	busy atomic.Bool      // held by a decode (see getScratch)
}

// newScratch allocates one worker's decoder scratch.
//
//tiscc:allow(hotpath) runs once per concurrent worker of a graph; getScratch reuses the scratch for every later shot
func (g *Graph) newScratch() *scratch {
	n := int(g.boundary) + 1
	e := len(g.edges)
	return &scratch{
		parent:    make([]int32, n),
		parity:    make([]uint8, n),
		bnd:       make([]bool, n),
		defect:    make([]bool, n),
		next:      make([]int32, n),
		growth:    make([]int32, e),
		grown:     make([]bool, e),
		front:     make([]uint64, (e+63)/64),
		listed:    make([]bool, n),
		grownList: make([]int32, 0, e),
		defects:   make([]int32, 0, n),
		roots:     make([]int32, 0, n),
		fired:     make([]uint64, n-1),
		firing:    make([]int32, 0, n-1),
		visited:   make([]bool, n),
		treeUsed:  make([]bool, e),
		fparent:   make([]int32, n),
		fedge:     make([]int32, n),
		order:     make([]int32, 0, n),
		inForest:  make([]bool, n),
		nodes:     make([]int32, 0, n),
		tel:       g.met.NewShard(),
	}
}

// getScratch takes an idle scratch: from the pool when it holds one, else
// from the graph's list of every scratch. A scratch is claimed by setting
// busy, so a pool entry that claimScratch took meanwhile is skipped.
func (g *Graph) getScratch() *scratch {
	for {
		sc, _ := g.pool.Get().(*scratch)
		if sc == nil {
			return g.claimScratch()
		}
		if sc.busy.CompareAndSwap(false, true) {
			return sc
		}
	}
}

// claimScratch claims an idle scratch the pool no longer holds, allocating
// one only when every scratch of the graph is in use.
//
//tiscc:allow(hotpath) reached only when the pool is empty: once per concurrent worker, and after a collection emptied the pool
func (g *Graph) claimScratch() *scratch {
	g.mu.Lock()
	defer g.mu.Unlock()
	for _, sc := range g.all {
		if sc.busy.CompareAndSwap(false, true) {
			return sc
		}
	}
	sc := g.newScratch()
	sc.busy.Store(true)
	g.all = append(g.all, sc)
	return sc
}

// putScratch releases a scratch to the pool.
func (g *Graph) putScratch(sc *scratch) {
	sc.busy.Store(false)
	g.pool.Put(sc)
}

func (sc *scratch) reset(g *Graph) {
	copy(sc.parent, g.protoParent)
	copy(sc.next, g.protoParent)
	clear(sc.parity)
	clear(sc.bnd)
	clear(sc.defect)
	clear(sc.growth)
	clear(sc.grown)
	clear(sc.visited)
	clear(sc.treeUsed)
	clear(sc.inForest)
	sc.grownList = sc.grownList[:0]
	sc.order = sc.order[:0]
	sc.nodes = sc.nodes[:0]
	sc.fellBack = false
}

func (sc *scratch) find(x int32) int32 {
	for sc.parent[x] != x {
		sc.parent[x] = sc.parent[sc.parent[x]] // path halving
		x = sc.parent[x]
	}
	return x
}

// DecodePlanes decodes a batch of up to 64 shots from their record planes
// and returns the corrected outcome word (bit i is lane i's logical
// outcome) and the lanes on which the decoder fell back to the raw readout.
// It implements noise.Decoder and is safe for concurrent use (each call
// claims its own scratch; see getScratch).
//
// Detector words come from the word kernel (Detectors.Fire), one XOR per
// record per batch. Lanes with an empty syndrome keep the raw readout and
// never touch growth; each other lane's fired detectors are listed in
// ascending id order and union-find decoded exactly as DecodeOutcome
// decodes one shot, with identical counters. A lane whose decode cannot
// neutralize every cluster (a structurally disconnected graph, which
// compiled experiments never produce) keeps the raw readout and sets its
// fallback bit.
//
//tiscc:hotpath
func (g *Graph) DecodePlanes(p *noise.Planes) (outcome, fallback uint64) {
	outcome = g.det.observable().EvalWords(p.Words)
	if len(g.edges) == 0 {
		return outcome, 0
	}
	sc := g.getScratch()
	defer g.putScratch(sc)
	live := g.det.Fire(p, sc.fired)
	empty := uint64(bits.OnesCount64(p.Lanes &^ live))
	sc.tel.Add(ctrShots, empty)
	sc.tel.Add(ctrEmptySyndromes, empty)
	for range empty {
		sc.tel.Observe(histDefectsPerShot, 0)
	}
	if live == 0 {
		return outcome, 0
	}
	sc.firing = sc.firing[:0]
	for i, w := range sc.fired[:len(g.det.Dets)] {
		if w != 0 {
			sc.firing = append(sc.firing, int32(i))
		}
	}
	for w := live; w != 0; w &= w - 1 {
		lane := uint(bits.TrailingZeros64(w))
		sc.defects = sc.defects[:0]
		for _, i := range sc.firing {
			if sc.fired[i]>>lane&1 == 1 {
				sc.defects = append(sc.defects, i)
			}
		}
		flip, ok := g.decodeShot(sc)
		if !ok {
			fallback |= 1 << lane
		} else if flip {
			outcome ^= 1 << lane
		}
	}
	return outcome, fallback
}

// DecodeOutcome decodes one shot from its record table and returns the
// corrected logical outcome: the per-shot counterpart of DecodePlanes, for
// callers that hold a record map. It reads the syndrome through
// Detectors.Syndrome and decodes it with the same core and counters. With
// an empty syndrome, or when the decode falls back, the raw readout is
// returned unchanged. Safe for concurrent use.
func (g *Graph) DecodeOutcome(records map[int32]bool) bool {
	raw := g.det.observable().Eval(records)
	if len(g.edges) == 0 {
		return raw
	}
	sc := g.getScratch()
	defer g.putScratch(sc)
	sc.defects = g.det.Syndrome(records, sc.defects[:0])
	flip, _ := g.decodeShot(sc)
	return raw != flip
}

// decodeShot counts one shot's syndrome, held in sc.defects in ascending
// order, and union-find decodes it when it is non-empty: flip is the
// correction's observable parity, ok is false when the decode fell back to
// the raw readout (flip is then false).
func (g *Graph) decodeShot(sc *scratch) (flip, ok bool) {
	sc.tel.Inc(ctrShots)
	sc.tel.Add(ctrDefects, uint64(len(sc.defects)))
	sc.tel.Observe(histDefectsPerShot, uint64(len(sc.defects)))
	if len(sc.defects) == 0 {
		sc.tel.Inc(ctrEmptySyndromes)
		return false, true
	}
	flip = g.decode(sc)
	return flip, !sc.fellBack
}

// decode grows and peels the clusters of the syndrome in sc.defects,
// returning the correction's observable parity.
func (g *Graph) decode(sc *scratch) bool {
	sc.reset(g)
	odd := 0
	for _, d := range sc.defects {
		sc.defect[d] = true
		sc.parity[d] = 1
		odd++
	}
	sc.tel.Add(ctrClustersSeeded, uint64(odd))
	sc.bnd[g.boundary] = true

	// Growth: each round, every edge incident to an active cluster grows by
	// one half-edge unit per active side. Rounds are bounded by the
	// quantized edge lengths times the cluster diameter; skipped idle
	// rounds count toward the bound, the round total and the frontier peak
	// exactly as executed ones.
	maxRounds := int(g.maxGrow) * (int(g.boundary) + 1)
	rounds, peakFrontier := 0, 0
	for odd > 0 {
		if rounds > maxRounds {
			return sc.fallback(rounds, peakFrontier)
		}
		size := g.collectFrontier(sc)
		if size == 0 {
			return sc.fallback(rounds+1, peakFrontier) // no edge can grow
		}
		if idle := min(g.idleRounds(sc), maxRounds+1-rounds); idle > 0 {
			g.skipRounds(sc, idle)
			rounds += idle
			peakFrontier = max(peakFrontier, size)
			if rounds > maxRounds {
				return sc.fallback(rounds, peakFrontier)
			}
		}
		rounds++
		peakFrontier = max(peakFrontier, g.growRound(sc, &odd))
	}
	sc.tel.Add(ctrEdgesGrown, uint64(len(sc.grownList)))
	sc.finishDecode(uint64(rounds), uint64(peakFrontier))
	return g.peel(sc)
}

// active reports whether the cluster rooted at r still drives growth.
func (sc *scratch) active(r int32) bool { return sc.parity[r] == 1 && !sc.bnd[r] }

// edgeInc returns edge e's endpoint roots and its growth per round: one
// half-edge unit per active side.
func (sc *scratch) edgeInc(e *Edge) (ru, rv, inc int32) {
	ru, rv = sc.find(e.U), sc.find(e.V)
	if sc.active(ru) {
		inc++
	}
	if rv != ru && sc.active(rv) {
		inc++
	}
	return ru, rv, inc
}

// collectFrontier fills sc.front with the ungrown edges incident to the
// members of the active clusters — exactly the edges that grow this round
// unless a merge intervenes — and returns their number.
func (g *Graph) collectFrontier(sc *scratch) int {
	clear(sc.front)
	sc.roots = sc.roots[:0]
	for _, d := range sc.defects {
		r := sc.find(d)
		if sc.listed[r] || !sc.active(r) {
			continue
		}
		sc.listed[r] = true
		sc.roots = append(sc.roots, r)
		g.addMembers(sc, r)
	}
	for _, r := range sc.roots {
		sc.listed[r] = false
	}
	size := 0
	for _, w := range sc.front {
		size += bits.OnesCount64(w)
	}
	return size
}

// addMembers adds the ungrown edges incident to the members of the cluster
// rooted at r to the frontier.
func (g *Graph) addMembers(sc *scratch, r int32) {
	v := r
	for {
		for _, ei := range g.adj[g.adjStart[v]:g.adjStart[v+1]] {
			if !sc.grown[ei] {
				sc.front[ei>>6] |= 1 << (ei & 63)
			}
		}
		if v = sc.next[v]; v == r {
			return
		}
	}
}

// idleRounds returns how many rounds the frontier can grow before any of
// its edges completes: in those rounds nothing merges, so each edge only
// gains its constant increment.
func (g *Graph) idleRounds(sc *scratch) int {
	idle := int32(math.MaxInt32)
	for w, word := range sc.front {
		for ; word != 0; word &= word - 1 {
			ei := w<<6 | bits.TrailingZeros64(word)
			_, _, inc := sc.edgeInc(&g.edges[ei])
			idle = min(idle, (g.edges[ei].Len-sc.growth[ei]-1)/inc)
		}
	}
	return int(idle)
}

// skipRounds applies n idle rounds of growth to the frontier.
func (g *Graph) skipRounds(sc *scratch, n int) {
	for w, word := range sc.front {
		for ; word != 0; word &= word - 1 {
			ei := w<<6 | bits.TrailingZeros64(word)
			_, _, inc := sc.edgeInc(&g.edges[ei])
			sc.growth[ei] += int32(n) * inc
		}
	}
}

// growRound runs one growth round over the frontier in ascending edge
// index, merging clusters as edges complete, and returns the number of
// edges that grew. Each word is re-read as the round goes: a merge that
// activates an even cluster adds its edges, and those above the current
// index grow in this same round, as they would in a scan of every edge.
func (g *Graph) growRound(sc *scratch, odd *int) int {
	frontier := 0
	for w := range sc.front {
		for lo := uint(0); lo < 64; {
			word := sc.front[w] >> lo << lo
			if word == 0 {
				break
			}
			b := uint(bits.TrailingZeros64(word))
			lo = b + 1
			ei := w<<6 | int(b)
			e := &g.edges[ei]
			ru, rv, inc := sc.edgeInc(e)
			if inc == 0 {
				continue // an earlier merge this round deactivated both sides
			}
			frontier++
			sc.growth[ei] += inc
			if sc.growth[ei] < e.Len {
				continue
			}
			sc.grown[ei] = true
			sc.grownList = append(sc.grownList, int32(ei))
			if ru != rv {
				g.union(sc, ru, rv, odd)
			}
		}
	}
	return frontier
}

// union merges the clusters rooted at ru and rv (the smaller root id
// survives, deterministically) and updates the active-cluster count. When
// an active cluster absorbs an even one, the merged cluster stays active
// and the even part's edges join the frontier.
func (g *Graph) union(sc *scratch, ru, rv int32, odd *int) {
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
	if sc.parity[ru] != sc.parity[rv] && !sc.bnd[ru] && !sc.bnd[rv] {
		if sc.active(ru) {
			g.addMembers(sc, rv)
		} else {
			g.addMembers(sc, ru)
		}
	}
	sc.next[ru], sc.next[rv] = sc.next[rv], sc.next[ru]
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
	*odd += after - before
}

// fallback records a decode that could not neutralize every cluster; the
// caller falls back to the raw readout.
func (sc *scratch) fallback(rounds, peakFrontier int) bool {
	sc.fellBack = true
	sc.tel.Inc(ctrRawFallbacks)
	sc.finishDecode(uint64(rounds), uint64(peakFrontier))
	return false
}

// finishDecode flushes one decode's growth observations (every exit path).
func (sc *scratch) finishDecode(rounds, peakFrontier uint64) {
	sc.tel.Add(ctrGrowthRounds, rounds)
	sc.tel.Observe(histRoundsPerShot, rounds)
	sc.tel.Observe(histFrontierEdges, peakFrontier)
}

// peel builds a spanning forest of the grown edges (rooted at the boundary
// where a cluster reached it) and peels it leaf-first: a node carrying odd
// defect parity selects its parent edge into the correction and hands the
// parity to its parent.
func (g *Graph) peel(sc *scratch) bool {
	for _, ei := range sc.grownList {
		for _, v := range [2]int32{g.edges[ei].U, g.edges[ei].V} {
			if !sc.inForest[v] {
				sc.inForest[v] = true
				sc.nodes = append(sc.nodes, v)
			}
		}
	}
	// BFS from the boundary first so that clusters touching it are rooted
	// there (leftover parity is absorbed); remaining components root at
	// their first-seen node.
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
			for k := g.adjStart[v]; k < g.adjStart[v+1]; k++ {
				ei := g.adj[k]
				if !sc.grown[ei] || sc.treeUsed[ei] {
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
				sc.treeUsed[ei] = true
				sc.visited[w] = true
				sc.fparent[w] = v
				sc.fedge[w] = int32(ei)
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
