package decoder

// Union-find decoding in the style of Delfosse & Nickerson: fired detectors
// seed odd clusters, and clusters grow along incident edges in half-edge
// units until they merge even or absorb the boundary. The merge edges form a
// spanning forest of the grown edges, and peeling a spanning forest leaves
// the XOR over the defects of each one's tree-path parity to its root as the
// correction's observable parity; each node carries that path parity as its
// merge label, so the result is read off the labels with no forest built.
// Only a grown edge that closes a cycle of odd observable parity lets two
// spanning forests disagree: such a shot is peeled over the BFS forest that
// defines the result. Decoding is a pure function of the syndrome — no
// randomness — so decoded estimates stay bit-identical for any worker count.
//
// Growth is event-driven (Dial's bucket queue, as in Sparse Blossom's
// flooding): an edge grows by one half-edge unit per round for each active
// cluster at its ends, so its growth is stored lazily as a base, a rate and
// the round the base holds through, and the round in which it completes is
// known the moment its rate is. Each growing edge waits in the bucket of its
// completion round. The loop jumps to the next non-empty bucket and
// completes its edges in ascending edge index; a merge re-keys only the
// edges at the members of the clusters whose activity it changed, and an
// edge above the cursor that now completes this round joins it. The
// result, the grown-edge order and every counter equal those of a scan of
// all edges every round (the test oracle in oracle_test.go).

import (
	"math"
	"math/bits"
	"slices"
	"sync/atomic"

	"tiscc/internal/noise"
	"tiscc/internal/telemetry"
)

// edgeState is one edge's growth: base half-edge units through round since,
// plus rate units per later round until the rate changes.
type edgeState struct {
	base, since int32
	// key is the round the edge completes in: 0 before the decode reaches
	// the edge, −1 while it does not grow.
	key          int32
	qnext, qprev int32 // links in the bucket of round key (−1 ends)
	rate         uint8 // active clusters at its ends: 0, 1 or 2
	grown        bool  // fully grown
	tree         bool  // in the fallback forest
}

// scratch is the per-worker decoder state: every slice is allocated once at
// full size, so a decode performs zero heap allocations. A decode writes
// only the nodes and edges it reaches and reset clears only those. Shots
// with an empty syndrome (the common case at low physical error rates)
// return before touching any of it.
type scratch struct {
	parent []int32 // cluster union-find (node-indexed)
	parity []uint8 // root-indexed: defect-count parity of the cluster
	bnd    []bool  // root-indexed: cluster absorbed the boundary
	defect []bool  // node-indexed: detector fired (mutated during peeling)
	next   []int32 // node-indexed: circular member list of each cluster
	// label is node-indexed: the observable parity of the node's
	// merge-forest path to its cluster root (the merge label).
	label []bool

	es   []edgeState // edge-indexed
	head []int32     // bucket queue: round&mask → first edge (−1 empty)
	mask int32
	cur  []int32 // the current round's completing edges, ascending
	pos  int     // cur[pos:] are still to come

	// The growth clock: edges up to cursor have been passed in round, the
	// rest only in round−1 (cursor is MaxInt32 between rounds).
	round, cursor int32
	live          int // growing edges (rate > 0)
	front         int // edges grown in the current round

	keyed     []int32 // edges the decode reached (key != 0)
	seeded    []int32 // the decode's defects
	grownList []int32 // edges grown, in growth order
	defects   []int32 // fired detector ids
	fellBack  bool    // the decode fell back to the raw readout
	oddCycle  bool    // a grown edge closed a cycle of odd observable parity

	// Batch syndrome (DecodePlanes).
	firing []int32 // detectors firing on at least one lane

	// Fallback forest: the BFS forest peeled when oddCycle is set.
	visited  []bool
	fparent  []int32 // node → tree-parent node (−1 for roots)
	fedge    []int32 // node → edge to tree parent
	order    []int32 // BFS order over forest nodes
	inForest []bool
	nodes    []int32 // nodes incident to grown edges
	bgrown   []int32 // grown edges at the boundary node, ascending

	tel  *telemetry.Shard // single-owner decode counters (never nil)
	busy atomic.Bool      // held by a decode (see getScratch)
}

// newScratch allocates one worker's decoder scratch.
//
//tiscc:allow(hotpath) runs once per concurrent worker of a graph; getScratch reuses the scratch for every later shot
func (g *Graph) newScratch() *scratch {
	n := int(g.boundary) + 1
	e := len(g.edges)
	// A completion round lies at most maxGrow rounds past the current one.
	buckets := 1 << bits.Len32(uint32(g.maxGrow))
	sc := &scratch{
		parent:    slices.Clone(g.protoParent),
		parity:    make([]uint8, n),
		bnd:       make([]bool, n),
		defect:    make([]bool, n),
		next:      slices.Clone(g.protoParent),
		label:     make([]bool, n),
		es:        make([]edgeState, e),
		head:      make([]int32, buckets),
		mask:      int32(buckets - 1),
		cur:       make([]int32, 0, e),
		keyed:     make([]int32, 0, e),
		seeded:    make([]int32, 0, n),
		grownList: make([]int32, 0, e),
		defects:   make([]int32, 0, n),
		firing:    make([]int32, 0, n-1),
		visited:   make([]bool, n),
		fparent:   make([]int32, n),
		fedge:     make([]int32, n),
		order:     make([]int32, 0, n),
		inForest:  make([]bool, n),
		nodes:     make([]int32, 0, n),
		bgrown:    make([]int32, 0, g.adjStart[n]-g.adjStart[n-1]),
		tel:       g.met.NewShard(),
	}
	for i := range sc.head {
		sc.head[i] = -1
	}
	return sc
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

// reset undoes the previous decode's writes: its defects, the ends of the
// edges it grew (every node it merged, forested or peeled) and the edges it
// reached, emptying the buckets they still wait in.
func (sc *scratch) reset(g *Graph) {
	for _, v := range sc.seeded {
		sc.clearNode(v)
	}
	for _, ei := range sc.grownList {
		sc.clearNode(g.edges[ei].U)
		sc.clearNode(g.edges[ei].V)
	}
	for _, ei := range sc.keyed {
		if k := sc.es[ei].key; k > 0 {
			sc.head[k&sc.mask] = -1
		}
		sc.es[ei] = edgeState{}
	}
	sc.keyed = sc.keyed[:0]
	sc.seeded = sc.seeded[:0]
	sc.grownList = sc.grownList[:0]
	sc.order = sc.order[:0]
	sc.nodes = sc.nodes[:0]
	sc.live = 0
	sc.fellBack, sc.oddCycle = false, false
}

// clearNode returns node v to a singleton cluster outside any forest.
func (sc *scratch) clearNode(v int32) {
	sc.parent[v], sc.next[v] = v, v
	sc.parity[v] = 0
	sc.bnd[v], sc.defect[v], sc.label[v], sc.visited[v], sc.inForest[v] = false, false, false, false, false
}

// find returns the root of x's cluster, one step away at most (see union).
func (sc *scratch) find(x int32) int32 {
	for sc.parent[x] != x {
		x = sc.parent[x]
	}
	return x
}

// DecodePlanes decodes a batch of up to 64 shots from their fault firings
// and returns the corrected outcome word (bit i is lane i's logical
// outcome) and the lanes on which the decoder fell back to the raw readout.
// It implements noise.Decoder and is safe for concurrent use (each call
// claims its own scratch; see getScratch).
//
// It reads no records: each firing of p.Fired XORs its branch's symptom
// (its Pauli components' symptoms, from the graph's retained effect table)
// into its lane of the batch's detector words (p.Dets, left filled for the
// observer) and, when the branch flips the observable, into the raw
// readout word, which starts at the observable's noiseless value. Lanes
// with an empty syndrome keep the raw readout and never touch growth; each
// other lane's fired detectors are listed in ascending id order and
// union-find decoded exactly as DecodeOutcome decodes one shot's records,
// with identical counters. A lane whose decode cannot neutralize every
// cluster (a structurally disconnected graph, which compiled experiments
// never produce) keeps the raw readout and sets its fallback bit.
//
//tiscc:hotpath
func (g *Graph) DecodePlanes(p *noise.Planes) (outcome, fallback uint64) {
	dets, outcome := g.eff.Fire(p)
	if g.det.ObsRef {
		outcome = ^outcome
	}
	if len(g.edges) == 0 {
		return outcome, 0
	}
	sc := g.getScratch()
	defer g.putScratch(sc)
	var live uint64
	sc.firing = sc.firing[:0]
	for i, w := range dets {
		if w != 0 {
			sc.firing = append(sc.firing, int32(i))
			live |= w
		}
	}
	empty := uint64(bits.OnesCount64(p.Lanes &^ live))
	sc.tel.Add(ctrShots, empty)
	sc.tel.Add(ctrEmptySyndromes, empty)
	for range empty {
		sc.tel.Observe(histDefectsPerShot, 0)
	}
	for w := live; w != 0; w &= w - 1 {
		lane := uint(bits.TrailingZeros64(w))
		sc.defects = sc.defects[:0]
		for _, i := range sc.firing {
			if dets[i]>>lane&1 == 1 {
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

// decode grows the clusters of the syndrome in sc.defects and returns the
// correction's observable parity: the XOR of the defects' merge labels, or
// the peel's parity when a grown edge closed an odd cycle (sc.oddCycle).
// The boundary node is never walked by union, so it stays the root of its
// cluster with a false label: a defect's label is then its path parity to
// the boundary that absorbed it, and no boundary term is needed.
//
//tiscc:hotpath
func (g *Graph) decode(sc *scratch) bool {
	sc.reset(g)
	sc.seeded = append(sc.seeded, sc.defects...)
	for _, d := range sc.defects {
		sc.defect[d] = true
		sc.parity[d] = 1
	}
	odd := len(sc.defects)
	sc.tel.Add(ctrClustersSeeded, uint64(odd))
	sc.bnd[g.boundary] = true
	sc.round, sc.cursor = 0, math.MaxInt32
	for _, d := range sc.defects {
		g.rekeyCluster(sc, d, d, false)
	}

	// Rounds are bounded by the quantized edge lengths times the cluster
	// diameter. The rounds between two completion events are idle: every
	// growing edge grows in each, so they count toward the bound, the round
	// total and the frontier peak exactly as executed rounds.
	maxRounds := int32(min(int(g.maxGrow)*(int(g.boundary)+1), math.MaxInt32/2))
	peakFrontier := 0
	for odd > 0 {
		if sc.round > maxRounds {
			return sc.fallback(sc.round, peakFrontier)
		}
		if sc.live == 0 {
			return sc.fallback(sc.round+1, peakFrontier) // no edge can grow
		}
		r := sc.round + 1
		for sc.head[r&sc.mask] < 0 {
			r++
		}
		if r > sc.round+1 {
			peakFrontier = max(peakFrontier, sc.live)
		}
		if r > maxRounds+1 {
			return sc.fallback(maxRounds+1, peakFrontier)
		}
		peakFrontier = max(peakFrontier, g.growRound(sc, r, &odd))
	}
	sc.tel.Add(ctrEdgesGrown, uint64(len(sc.grownList)))
	sc.finishDecode(uint64(sc.round), uint64(peakFrontier))
	if sc.oddCycle {
		return g.peel(sc)
	}
	obs := false
	for _, d := range sc.seeded {
		obs = obs != sc.label[d]
	}
	return obs
}

// active reports whether the cluster rooted at r still drives growth.
func (sc *scratch) active(r int32) bool { return sc.parity[r] == 1 && !sc.bnd[r] }

// growRound runs round r: it completes the edges of r's bucket in ascending
// edge index, merging clusters as they complete, and returns the number of
// edges that grew in the round. A merge re-keys the edges whose rate it
// changes; those above the cursor that now complete in round r are added to
// cur in order. An edge that completes inside one cluster closes a cycle,
// and sets oddCycle when the cycle's observable parity is odd.
//
//tiscc:hotpath
func (g *Graph) growRound(sc *scratch, r int32, odd *int) int {
	sc.round = r
	sc.front = sc.live
	b := r & sc.mask
	sc.cur = sc.cur[:0]
	for ei := sc.head[b]; ei >= 0; ei = sc.es[ei].qnext {
		sc.cur = append(sc.cur, ei)
	}
	sc.head[b] = -1
	slices.Sort(sc.cur)
	for sc.pos = 0; sc.pos < len(sc.cur) && *odd > 0; {
		ei := sc.cur[sc.pos]
		sc.pos++
		s := &sc.es[ei]
		if s.key != r {
			continue // re-keyed after it joined the round
		}
		sc.cursor = ei
		s.grown = true
		sc.live--
		sc.grownList = append(sc.grownList, ei)
		e := &g.edges[ei]
		if ru, rv := sc.find(e.U), sc.find(e.V); ru != rv {
			g.union(sc, ru, rv, e, odd)
		} else if sc.label[e.U] != sc.label[e.V] != e.Obs {
			sc.oddCycle = true
		}
	}
	sc.cursor = math.MaxInt32
	return sc.front
}

// union merges the clusters rooted at ru and rv over the grown edge e,
// updates the active-cluster count and re-keys the edges at the members of
// each side whose activity changed: both sides when two active clusters
// neutralize each other, the active side when it absorbs the boundary, and
// the even side when an active cluster absorbs it. The boundary cluster
// never changes activity, so its high-degree node is never walked. The root
// of a side that is not walked survives, and the walk points every member
// of the other side straight at it, so every member of every cluster points
// straight at its root. That walk also flips the side's merge labels by
// the parity of the path through e to the surviving root.
//
//tiscc:hotpath
func (g *Graph) union(sc *scratch, ru, rv int32, e *Edge, odd *int) {
	flip := sc.label[e.U] != sc.label[e.V] != e.Obs
	au, av := sc.active(ru), sc.active(rv)
	a := sc.parity[ru] != sc.parity[rv] && !sc.bnd[ru] && !sc.bnd[rv]
	if av == a { // side v is not walked: its root survives
		ru, rv, au, av = rv, ru, av, au
	}
	sc.parent[rv] = ru
	sc.parity[ru] ^= sc.parity[rv]
	sc.bnd[ru] = sc.bnd[ru] || sc.bnd[rv]
	// Each side is still its own member ring until the splice below.
	if au != a {
		g.rekeyCluster(sc, ru, ru, false)
	}
	g.rekeyCluster(sc, rv, ru, flip)
	sc.next[ru], sc.next[rv] = sc.next[rv], sc.next[ru]
	sc.tel.Inc(ctrMerges)
	*odd += b2i(a) - b2i(au) - b2i(av)
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// rekeyCluster re-keys the ungrown edges at the members of the ring that
// starts at v, all of which belong to the cluster rooted at root; it points
// each member straight at root on the way and XORs flip into its label.
//
//tiscc:hotpath
func (g *Graph) rekeyCluster(sc *scratch, v, root int32, flip bool) {
	a := sc.active(root)
	for m := v; ; {
		sc.parent[m] = root
		sc.label[m] = sc.label[m] != flip
		for _, ei := range g.adj[g.adjStart[m]:g.adjStart[m+1]] {
			if sc.es[ei].grown {
				continue
			}
			e := &g.edges[ei]
			var rate uint8
			if a {
				rate = 1
			}
			if rw := sc.find(e.U ^ e.V ^ m); rw != root && sc.active(rw) {
				rate++
			}
			sc.setRate(ei, e.Len, rate)
		}
		if m = sc.next[m]; m == v {
			return
		}
	}
}

// setRate sets the growth rate of edge ei, whose growth length is length.
// When the rate changes it settles the edge's growth through the last round
// the growth clock has passed it in and moves it to the bucket of its new
// completion round; the live and current-round frontier counts follow.
//
//tiscc:hotpath
func (sc *scratch) setRate(ei, length int32, rate uint8) {
	s := &sc.es[ei]
	if rate == s.rate {
		return
	}
	last := sc.round
	above := ei > sc.cursor // not yet passed in this round
	if above {
		last--
	}
	s.base += int32(s.rate) * (last - s.since)
	s.since = last
	delta := b2i(rate > 0) - b2i(s.rate > 0)
	sc.live += delta
	if above {
		sc.front += delta
	}
	s.rate = rate
	old := s.key
	if old == 0 {
		sc.keyed = append(sc.keyed, ei)
	}
	key := int32(-1)
	if rest := length - s.base; rate == 1 {
		key = last + rest
	} else if rate == 2 {
		key = last + (rest+1)>>1
	}
	if key == old {
		return
	}
	if old > sc.round { // waiting in its bucket; key == round means in cur
		if s.qprev >= 0 {
			sc.es[s.qprev].qnext = s.qnext
		} else {
			sc.head[old&sc.mask] = s.qnext
		}
		if s.qnext >= 0 {
			sc.es[s.qnext].qprev = s.qprev
		}
	}
	s.key = key
	switch {
	case key == sc.round: // above the cursor: completes in this round
		if i, found := slices.BinarySearch(sc.cur[sc.pos:], ei); !found {
			sc.cur = slices.Insert(sc.cur, sc.pos+i, ei)
		}
	case key > 0:
		b := key & sc.mask
		s.qprev, s.qnext = -1, sc.head[b]
		if s.qnext >= 0 {
			sc.es[s.qnext].qprev = ei
		}
		sc.head[b] = ei
	}
}

// fallback records a decode that could not neutralize every cluster; the
// caller falls back to the raw readout.
func (sc *scratch) fallback(rounds int32, peakFrontier int) bool {
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

// peel is decode's fallback for a shot whose grown edges close an odd
// cycle, where the choice of spanning forest decides the parity. It builds
// a BFS forest of the grown edges (rooted at the boundary where a cluster
// reached it) and peels it leaf-first: a node carrying odd defect parity
// selects its parent edge into the correction and hands the parity to its
// parent.
func (g *Graph) peel(sc *scratch) bool {
	sc.bgrown = sc.bgrown[:0]
	for _, ei := range sc.grownList {
		e := &g.edges[ei]
		for _, v := range [2]int32{e.U, e.V} {
			if !sc.inForest[v] {
				sc.inForest[v] = true
				sc.nodes = append(sc.nodes, v)
			}
		}
		if (e.U == g.boundary) != (e.V == g.boundary) {
			sc.bgrown = append(sc.bgrown, ei)
		}
	}
	// The boundary node's adjacency is by far the largest, and few of its
	// edges grow: its BFS step walks only the grown ones, in the same
	// ascending order as its adjacency list, so the forest is unchanged.
	slices.Sort(sc.bgrown)
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
			adj := g.adj[g.adjStart[v]:g.adjStart[v+1]]
			if v == g.boundary {
				adj = sc.bgrown
			}
			for _, ei := range adj {
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
