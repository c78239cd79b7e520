package frame

import (
	"tiscc/internal/noise"
	"tiscc/internal/orqcs"
)

// SamplePlanes runs shots shot lanes through the frame sampler across a
// deterministic worker pool, 64 per batch, and hands each batch's record
// plane to visit: the noise.RecordSampler implementation that plugs the
// engine into noise.EstimateLogicalError.
//
// Shot i's records derive from orqcs.ShotSeed(seed, i) regardless of worker
// count or batch placement. visit may be called concurrently from different
// workers (always for distinct batches); the planes are only valid for the
// duration of the call. A non-nil error from visit stops the run.
func (s *Sim) SamplePlanes(shots int, seed int64, workers int, visit func(p *noise.Planes) error) error {
	if shots < 0 {
		return &noise.OptionError{Op: "frame.SamplePlanes", Field: "Shots", Value: shots, Constraint: "must be ≥ 0"}
	}
	if workers < 0 {
		return &noise.OptionError{Op: "frame.SamplePlanes", Field: "Workers", Value: workers, Constraint: "must be ≥ 0"}
	}
	return orqcs.RunPool(batches(shots), workers, s.NewBatch, func(b *Batch, bi int) error {
		return b.sampleBatch(bi, shots, seed, visit)
	})
}

// sampleBatch runs batch bi and hands its record plane to visit, with no
// per-shot work in between.
//
//tiscc:hotpath
func (b *Batch) sampleBatch(bi, shots int, seed int64, visit func(p *noise.Planes) error) error {
	b.runBatch(bi, shots, seed)
	return visit(&b.p)
}

// batches is the number of 64-lane batches covering shots shots.
func batches(shots int) int { return (shots + 63) / 64 }

// runBatch runs batch bi of a shots-shot run: shots [64·bi, 64·bi+64), every
// lane still seeded per shot.
func (b *Batch) runBatch(bi, shots int, seed int64) {
	b.Run(bi*64, min(64, shots-bi*64), seed)
}

// EstimateMany Monte-Carlo-estimates several Pauli operators over the
// sampler's program (under its fault schedule, when one was compiled): the
// frame-engine counterpart of orqcs.EstimateMany / noise
// Schedule.EstimateMany, with bit-identical per-shot values and the same
// strict-order streaming reduction, so means and standard errors match the
// tableau engines float for float at every worker count.
func (s *Sim) EstimateMany(ops []orqcs.SitePauli, shots int, seed int64, workers int) (means, stderrs []float64, err error) {
	if shots < 1 {
		return nil, nil, &noise.OptionError{Op: "frame.EstimateMany", Field: "Shots", Value: shots, Constraint: "must be ≥ 1"}
	}
	if workers < 0 {
		return nil, nil, &noise.OptionError{Op: "frame.EstimateMany", Field: "Workers", Value: workers, Constraint: "must be ≥ 0"}
	}
	if len(ops) == 0 {
		return nil, nil, &noise.OptionError{Op: "frame.EstimateMany", Field: "Ops", Value: ops, Constraint: "must name at least one operator"}
	}
	ros := make([]*Op, len(ops))
	for j, op := range ops {
		if ros[j], err = s.CompileOp(op); err != nil {
			return nil, nil, err
		}
	}
	st := orqcs.NewStats(len(ops))
	// Each pool worker owns a Batch and its per-operator value buffers.
	type worker struct {
		b     *Batch
		flips []uint64
		vals  []float64
	}
	newWorker := func() *worker {
		return &worker{b: s.NewBatch(), flips: make([]uint64, len(ops)), vals: make([]float64, len(ops))}
	}
	if err := orqcs.RunPool(batches(shots), workers, newWorker, func(w *worker, bi int) error {
		b := w.b
		b.runBatch(bi, shots, seed)
		for j, ro := range ros {
			w.flips[j] = b.FlipWord(ro)
		}
		for lane := 0; lane < b.p.N; lane++ {
			for j, ro := range ros {
				v := ro.ref
				if w.flips[j]>>uint(lane)&1 == 1 {
					v = -v
				}
				w.vals[j] = v
			}
			st.Add(b.p.First+lane, w.vals)
		}
		return nil
	}); err != nil {
		return nil, nil, err
	}
	means, stderrs = st.Results()
	return means, stderrs, nil
}
