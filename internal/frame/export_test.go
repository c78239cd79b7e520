package frame

import (
	"tiscc/internal/noise"
	"tiscc/internal/orqcs"
)

// Trace exposes the sampler's reference trace to the external tests.
func (s *Sim) Trace() *orqcs.Reference { return s.ref }

// NewSim exposes newSim: a sampler on a given reference trace.
var NewSim = newSim

// Batches exposes batches: the 64-lane batch count of a run.
var Batches = batches

// RunBatch exposes runBatch: batch bi of a shots-shot run.
func (b *Batch) RunBatch(bi, shots int, seed int64) { b.runBatch(bi, shots, seed) }

// SampleBatch exposes sampleBatch: RunBatch, then visit the record plane.
func (b *Batch) SampleBatch(bi, shots int, seed int64, visit func(p *noise.Planes) error) error {
	return b.sampleBatch(bi, shots, seed, visit)
}
