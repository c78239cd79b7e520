package decoder

import "tiscc/internal/telemetry"

// DecoderSchema declares the union-find decoder's instruments: hot per-shot
// counters incremented by the pooled scratch shards, plus compile-time graph
// quantities filled in by Graph.Metrics.
var DecoderSchema = &telemetry.Schema{
	Component: "decoder",
	Counters: []string{
		// Per-shot (hot path).
		"shots",           // syndromes evaluated
		"empty_syndromes", // shots with no fired detector (raw readout kept)
		"raw_fallbacks",   // decodes that could not neutralize every cluster
		"defects",         // fired detectors across shots
		"clusters_seeded", // odd clusters seeded (== defects)
		"growth_rounds",   // cluster-growth rounds executed
		"merges",          // cluster unions
		"edges_grown",     // edges grown to full length
		// Compile-time (Graph.Metrics).
		"detectors",
		"edges",
		"boundary_edges",
		"undetectable_mechanisms",
		"undecomposed_mechanisms",
	},
	Hists: []string{
		"defects_per_shot", // fired detectors per decoded shot
		"rounds_per_shot",  // growth rounds per decoded shot
		"frontier_edges",   // peak growth frontier: most edges grown in one round, the idle rounds between completion events included
	},
}

// Decoder instrument indices into DecoderSchema.
const (
	ctrShots telemetry.Counter = iota
	ctrEmptySyndromes
	ctrRawFallbacks
	ctrDefects
	ctrClustersSeeded
	ctrGrowthRounds
	ctrMerges
	ctrEdgesGrown
)

const (
	histDefectsPerShot telemetry.HistID = iota
	histRoundsPerShot
	histFrontierEdges
)

// Metrics merges the per-scratch decode counters with the graph's
// compile-time quantities into one "decoder" snapshot. Only call at
// quiescence (no DecodeOutcome in flight).
func (g *Graph) Metrics() *telemetry.Snapshot {
	snap := g.met.Snapshot()
	bnd := 0
	for i := range g.edges {
		if g.edges[i].V == g.boundary {
			bnd++
		}
	}
	snap.SetCounter("detectors", uint64(len(g.det.Dets)))
	snap.SetCounter("edges", uint64(len(g.edges)))
	snap.SetCounter("boundary_edges", uint64(bnd))
	snap.SetCounter("undetectable_mechanisms", uint64(g.undetectable))
	snap.SetCounter("undecomposed_mechanisms", uint64(g.undecomposed))
	return snap
}
