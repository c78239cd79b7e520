package decoder

import (
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"tiscc/internal/noise"
)

// Plans compiles the decoding graphs of one detector structure against
// many schedules of its program. A sweep compiles one circuit against many
// noise models, and only the probabilities change from point to point, so
// Plans keeps the plans its compiles built and Graph re-weighs the first
// one that fits the new schedule instead of re-running the backward pass
// and the hyper decomposition. A plan fits when the schedule has its fault
// sites and positive branches and no pair a decomposition reads changes
// its winning variant; otherwise Graph plans afresh and keeps the new plan
// too (at most maxPlans, most recent first). Plans are never chosen by
// model name. Every graph is byte-identical to a fresh CompileGraph's, so
// tiscc-bench -plist, orqcs sweeps and the estimation service's cached
// shapes all plan once per circuit and model family. Plans is safe for
// concurrent use: re-weighs run unlocked, and concurrent misses of one
// model family build one plan.
type Plans struct {
	det  *Detectors
	mu   sync.Mutex              // serializes misses
	list atomic.Pointer[[]*plan] // replaced, never written in place: readers keep a snapshot
}

// maxPlans bounds the plans a Plans keeps: one per noise-model family a
// cached circuit serves (every depolarizing p shares one).
const maxPlans = 4

// NewPlans returns an empty plan set for d.
func NewPlans(d *Detectors) *Plans {
	ps := &Plans{det: d}
	ps.list.Store(new([]*plan))
	return ps
}

// plans returns the kept plans, most recent first.
func (ps *Plans) plans() []*plan { return *ps.list.Load() }

// Graph compiles the decoding graph of s. It re-weighs the first kept plan
// that fits s, on a snapshot of the list and without the lock. On a miss it
// takes the lock, re-tries the plans kept since the snapshot, and otherwise
// plans s as CompileGraph does and keeps the plan first, dropping the least
// recent beyond maxPlans.
func (ps *Plans) Graph(s *noise.Schedule) (*Graph, error) {
	seen := ps.plans()
	for _, pl := range seen {
		if g, ok := pl.weigh(s); ok {
			return g, nil
		}
	}
	ps.mu.Lock()
	defer ps.mu.Unlock()
	kept := ps.plans()
	for _, pl := range kept {
		if slices.Contains(seen, pl) {
			continue
		}
		if g, ok := pl.weigh(s); ok {
			return g, nil
		}
	}
	pl, P, err := newPlan(ps.det, s)
	if err != nil {
		return nil, err
	}
	kept = append([]*plan{pl}, kept[:min(len(kept), maxPlans-1)]...)
	ps.list.Store(&kept)
	return pl.graph(P), nil
}

// Bytes approximates the memory the kept plans hold: per plan, its effect
// table, its per-branch, per-edge and per-decomposition arrays, and the
// schedule it was planned on, which it keeps for the site check.
func (ps *Plans) Bytes() int {
	n := 0
	for _, pl := range ps.plans() {
		n += pl.eff.Bytes() + pl.sched.Bytes() + 4*len(pl.ref) + 12*len(pl.keys) + 4*len(pl.hyper) + 4*len(pl.comps) + len(pl.win)
	}
	return n
}

// plan is the probability-independent half of a compiled decoding graph:
// everything CompileGraph derives from a schedule's fault sites and their
// symptoms, none of it from the sites' probabilities. It holds the effect
// table, the sorted edge set, what each fault branch contributes to it —
// an edge, nothing (undetectable, empty or hyper), or a decomposition into
// edges — and, for every pair whose observable variant a decomposition
// reads, which variant won. weigh folds a schedule's probabilities into
// edge weights along the plan, so a sweep over physical error rates runs
// the backward pass and the decomposition once per shape instead of once
// per point. A plan is immutable once built (its distance memo aside) and
// safe for concurrent use.
type plan struct {
	det   *Detectors
	sched *noise.Schedule // the schedule planned: a plan fits schedules with its sites
	eff   *noise.Effects

	// ref[i] is what branch i contributes, branches numbered in
	// (site, Fault.Branch) order over every site: a graphlike edge id,
	// refHyper for a decomposed hyper branch, refNone, or refSkip for a
	// branch with no positive probability.
	ref []int32
	// keys are the edges, sorted: u<<33 | v<<1 | obs.
	keys []uint64
	// The j-th decomposed hyper branch, in mechanism order, folds into
	// the edges comps[hyper[j]:hyper[j+1]].
	hyper []int32
	comps []int32
	// pairOf maps an edge to the index of its node pair among the
	// contested pairs a decomposition reads (both observable variants are
	// edges), or −1; win holds each such pair's winning variant.
	pairOf []int32
	win    []bool

	undetectable, undecomposed int

	distOnce sync.Once
	dist     int
}

// Branch contributions in plan.ref that are not an edge id.
const (
	refNone  int32 = -1 // positive, adds to no edge
	refSkip  int32 = -2 // probability ≤ 0: not a mechanism
	refHyper int32 = -3 // a decomposed hyper branch (plan.hyper)
)

// edgeKeyOf packs an edge's node pair and observable effect so that the
// integer order is the (u, v, obs) order; key>>1 is the node pair.
func edgeKeyOf(u, v int32, obs bool) uint64 {
	k := uint64(u)<<33 | uint64(v)<<1
	if obs {
		k |= 1
	}
	return k
}

// newPlan plans the decoding graph of s against d. One backward pass
// (noise.CompileEffects) compiles the effect table of the detectors and
// the observable, which also proves them all deterministic, and each fault branch's mechanism is the XOR of its
// components' symptoms in it (noise.Effects.EachMechanism, which hands a
// single-component branch the table's own symptom slice). A site's
// branches are equiprobable, so every pass reads and tests a site's
// probability once. Branches flipping ≤ 2 detectors are edges; rarer hyper
// mechanisms (e.g. Y-type or correlated two-qubit branches touching both
// stabilizer types) are decomposed per stabilizer type into the graphlike
// edges simpler branches define, each component taking the observable
// effect of the pair's most probable graphlike variant. A decomposition is
// kept only when every component matched a known edge and the components
// reproduce the mechanism's observable effect exactly; otherwise dropping
// the (rare, P/15-scale) branch is safer than poisoning an edge's
// correction parity. It also returns the probabilities fold gives for s,
// folded while picking the winning variants, so a graph weighed from a
// fresh plan folds s once: a plan fits the schedule it was built from by
// construction.
func newPlan(d *Detectors, s *noise.Schedule) (*plan, []float64, error) {
	checks := make([][]int32, len(d.Dets))
	for i := range d.Dets {
		checks[i] = d.Dets[i].Recs
	}
	eff, err := noise.CompileEffects(s, checks, d.Obs)
	if err != nil {
		return nil, nil, err
	}
	pl := &plan{det: d, sched: s, eff: eff}
	boundary := int32(len(d.Dets))
	branches := 0
	for k := range s.NumFaultSites() {
		f := s.SiteFault(k)
		branches += f.NumBranches()
	}
	pl.ref = make([]int32, 0, branches)
	for k := range s.NumFaultSites() {
		f := s.SiteFault(k)
		ref := refNone
		if !(f.BranchP() > 0) {
			ref = refSkip
		}
		for range f.NumBranches() {
			pl.ref = append(pl.ref, ref)
		}
	}

	// Pass 1: graphlike mechanisms define the edge set; hyper mechanisms
	// keep their symptoms in one arena. gl has room for every branch.
	type pending struct {
		at, lo, site int32 // branch number, its symptom's start in hyperDets and its site
		obs          bool
	}
	var (
		gl         = make([]graphlike, 0, branches)
		hyper      []pending // then an end marker
		hyperDets  []int32
		site, base int // the branch number of site's branch 0
	)
	err = eff.EachMechanism(s, func(m noise.Mechanism) error {
		for ; site < m.Site; site++ {
			f := s.SiteFault(site)
			base += f.NumBranches()
		}
		at := int32(base + m.Branch)
		switch len(m.Dets) {
		case 0:
			pl.undetectable++
		case 1:
			gl = append(gl, graphlike{edgeKeyOf(m.Dets[0], boundary, m.Obs), at})
		case 2:
			gl = append(gl, graphlike{edgeKeyOf(m.Dets[0], m.Dets[1], m.Obs), at})
		default:
			hyper = append(hyper, pending{at, int32(len(hyperDets)), int32(m.Site), m.Obs})
			hyperDets = append(hyperDets, m.Dets...)
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	hyper = append(hyper, pending{lo: int32(len(hyperDets))})
	pl.numberEdges(gl, boundary)

	// Node pairs, each with its variants' edge ids (−1 when absent), and
	// every pair's winning variant: the observable effect of its most
	// probable graphlike mechanism, the first one on ties. The pairs are
	// sorted, so pairAt indexes them by lower node: node u's pairs are
	// pairs[pairAt[u]:pairAt[u+1]], ascending in the upper node.
	var pairs []uint64
	var variant [][2]int32
	pairOf := make([]int32, len(pl.keys))
	pairAt := make([]int32, boundary+2)
	for e, k := range pl.keys {
		if n := len(pairs); n == 0 || pairs[n-1] != k>>1 {
			pairs = append(pairs, k>>1)
			variant = append(variant, [2]int32{-1, -1})
			pairAt[k>>33+1]++
		}
		pairOf[e] = int32(len(pairs) - 1)
		variant[len(pairs)-1][k&1] = int32(e)
	}
	for u := range boundary + 1 {
		pairAt[u+1] += pairAt[u]
	}
	P := make([]float64, len(pl.keys), len(pl.keys)+len(hyper)-1)
	win, _ := pl.fold(s, pairOf, len(pairs), P)
	known := func(u, v int32) (int, bool) {
		for c := pairAt[u]; c < pairAt[u+1]; c++ {
			if w := int32(uint32(pairs[c])); w >= v {
				return int(c), w == v
			}
		}
		return 0, false
	}
	// sameType[di] reports whether detector di has the basis's stabilizer
	// type.
	sameType := make([]bool, len(d.Dets))
	for i := range d.Dets {
		sameType[i] = d.Dets[i].Type == d.basis
	}

	// Pass 2: decompose hyper mechanisms against the known pairs, grouping
	// each one's detectors by stabilizer type (sorted within a group): the
	// basis type first.
	read := make([]bool, len(pairs)) // pairs some decomposition's parity reads
	// Most decompositions are kept, one edge per stabilizer type.
	pl.hyper = append(make([]int32, 0, len(hyper)), 0)
	pl.comps = make([]int32, 0, 2*(len(hyper)-1))
	var grps [2][]int32
	var used []bool
	pSite, p := int32(-1), 0.0 // the last kept hyper branch's site and its branches' probability
	for j, h := range hyper[:len(hyper)-1] {
		lo := int32(len(pl.comps))
		obsSum, ok := false, true
		grps[0], grps[1] = grps[0][:0], grps[1][:0]
		for _, di := range hyperDets[h.lo:hyper[j+1].lo] {
			g := 1
			if sameType[di] {
				g = 0
			}
			grps[g] = append(grps[g], di)
		}
		for _, grp := range grps {
			used = slices.Grow(used[:0], len(grp))[:len(grp)]
			clear(used)
			for i := range grp {
				if used[i] {
					continue
				}
				used[i] = true
				c, found := -1, false
				for j := i + 1; j < len(grp) && !found; j++ {
					if !used[j] {
						if c, found = known(grp[i], grp[j]); found {
							used[j] = true
						}
					}
				}
				if !found {
					c, found = known(grp[i], boundary)
				}
				if !found {
					ok = false
					continue
				}
				read[c] = true
				obsSum = obsSum != win[c]
				pl.comps = append(pl.comps, variant[c][b2i(win[c])])
			}
		}
		if !ok || obsSum != h.obs {
			pl.comps = pl.comps[:lo]
			continue
		}
		pl.ref[h.at] = refHyper
		pl.hyper = append(pl.hyper, int32(len(pl.comps)))
		if h.site != pSite { // hyper branches come in site order
			f := s.SiteFault(int(h.site))
			pSite, p = h.site, f.BranchP()
		}
		P = append(P, p)
	}
	pl.undecomposed = len(hyper) - len(pl.hyper)

	// A reweighing must leave the winner of every contested pair a
	// decomposition read unchanged.
	contested := make([]int32, len(pairs))
	for c := range pairs {
		contested[c] = -1
		if read[c] && variant[c][0] >= 0 && variant[c][1] >= 0 {
			contested[c] = int32(len(pl.win))
			pl.win = append(pl.win, win[c])
		}
	}
	for e, c := range pairOf {
		pairOf[e] = contested[c]
	}
	pl.pairOf = pairOf
	return pl, P, nil
}

// graphlike is one graphlike mechanism: its edge key and branch number.
type graphlike struct {
	key uint64
	at  int32
}

// numberEdges sorts the distinct edge keys of gl into pl.keys and points
// each mechanism's branch at its edge id. It buckets the mechanisms by
// their lower node u (nodes are at most boundary) and numbers each
// bucket's few distinct (v, obs) with a stamp array indexed by them, so the
// cost is linear but for the sort of each node's distinct neighbours.
func (pl *plan) numberEdges(gl []graphlike, boundary int32) {
	n := int(boundary) + 1
	start := make([]int32, n+1)
	for _, e := range gl {
		start[e.key>>33+1]++
	}
	for u := range n {
		start[u+1] += start[u]
	}
	byU := make([]int32, len(gl))
	fill := slices.Clone(start[:n])
	for i, e := range gl {
		u := e.key >> 33
		byU[fill[u]] = int32(i)
		fill[u]++
	}
	stamp := make([]int32, 2*n) // (v, obs) → 1 + the last u that used it
	id := make([]int32, 2*n)    // (v, obs) → its edge id in the current bucket
	var uniq []uint64
	for u := range n {
		uniq = uniq[:0]
		bucket := byU[start[u]:start[u+1]]
		for _, i := range bucket {
			low := gl[i].key & (1<<33 - 1)
			if stamp[low] != int32(u)+1 {
				stamp[low] = int32(u) + 1
				uniq = append(uniq, low)
			}
		}
		slices.Sort(uniq)
		for _, low := range uniq {
			id[low] = int32(len(pl.keys))
			pl.keys = append(pl.keys, uint64(u)<<33|low)
		}
		for _, i := range bucket {
			pl.ref[gl[i].at] = id[gl[i].key&(1<<33-1)]
		}
	}
	pl.keys = slices.Clip(pl.keys)
}

// fold walks s's fault branches in plan order, reading each site's
// probability once (a site's branches are equiprobable). It reports false
// unless the branches with positive probability are the plan's. It merges
// each graphlike branch's probability into its edge's in P (one slot per
// edge, then one per decomposed hyper branch), in mechanism order, and
// keeps each decomposed hyper branch's. It returns, per pair index of
// pairOf (< n), the observable effect of the pair's most probable
// graphlike variant, the first one on ties.
func (pl *plan) fold(s *noise.Schedule, pairOf []int32, n int, P []float64) ([]bool, bool) {
	best := make([]float64, n)
	for i := range best {
		best[i] = -1 // any mechanism's probability beats it
	}
	win := make([]bool, n)
	i, h := 0, len(pl.keys) // h: P's slot of the next decomposed hyper branch
	for k := range s.NumFaultSites() {
		f := s.SiteFault(k)
		p := f.BranchP()
		skip := !(p > 0)
		refs := pl.ref[i : i+f.NumBranches()]
		i += len(refs)
		for _, r := range refs {
			if skip != (r == refSkip) {
				return nil, false
			}
			if r == refHyper {
				P[h] = p
				h++
			}
			if r < 0 {
				continue
			}
			P[r] = mergeP(P[r], p)
			if c := pairOf[r]; c >= 0 && p > best[c] {
				best[c], win[c] = p, pl.keys[r]&1 == 1
			}
		}
	}
	return win, true
}

// fits reports whether pl fits s: s has the plan's fault sites and
// positive branches, and every contested pair a decomposition read keeps
// its winning variant. When it does, it returns what fold gives.
func (pl *plan) fits(s *noise.Schedule) ([]float64, bool) {
	if !pl.sched.SameSites(s) {
		return nil, false
	}
	P := make([]float64, len(pl.keys)+len(pl.hyper)-1)
	win, ok := pl.fold(s, pl.pairOf, len(pl.win), P)
	return P, ok && slices.Equal(win, pl.win)
}

// weigh compiles the decoding graph of s from pl when pl fits s, and
// reports false otherwise. The graph is CompileGraph's byte for byte: each
// edge folds its branches' probabilities in the same order (graphlike
// branches in mechanism order, then decomposed hyper branches), and the
// weights are quantized the same way. The graph shares the plan's effect
// table.
func (pl *plan) weigh(s *noise.Schedule) (*Graph, bool) {
	P, ok := pl.fits(s)
	if !ok {
		return nil, false
	}
	return pl.graph(P), true
}

// graph merges each decomposed hyper branch's probability into its
// components' edges, after every graphlike one (P is fold's), and builds
// the graph: edges with their merged probabilities and quantized growth
// lengths.
func (pl *plan) graph(P []float64) *Graph {
	for j := range len(pl.hyper) - 1 {
		p := P[len(pl.keys)+j]
		for _, e := range pl.comps[pl.hyper[j]:pl.hyper[j+1]] {
			P[e] = mergeP(P[e], p)
		}
	}
	g := &Graph{det: pl.det, boundary: int32(len(pl.det.Dets)), eff: *pl.eff, plan: pl,
		undetectable: pl.undetectable, undecomposed: pl.undecomposed}
	if len(pl.keys) == 0 {
		// An empty model (ideal noise): decoding degenerates to the raw
		// readout. Keep a valid, edgeless graph.
		g.finish(nil)
		return g
	}
	edges := make([]Edge, len(pl.keys))
	minW := math.Inf(1)
	ws := make([]float64, len(edges))
	for i, k := range pl.keys {
		p := P[i]
		if p > 0.4999 {
			p = 0.4999
		}
		ws[i] = math.Log((1 - p) / p)
		if ws[i] < minW {
			minW = ws[i]
		}
		edges[i] = Edge{U: int32(k >> 33), V: int32(uint32(k >> 1)), Obs: k&1 == 1, P: P[i]}
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
	return g
}

// distance is the graphlike distance of every graph weighed from the plan
// (it depends on the edges' nodes and observable effects only), searched
// on g once.
func (pl *plan) distance(g *Graph) int {
	pl.distOnce.Do(func() { pl.dist = g.search() })
	return pl.dist
}
