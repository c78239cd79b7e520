package frame

import (
	"tiscc/internal/noise"
	"tiscc/internal/orqcs"
)

// SampleRecords runs shots shot lanes through the frame sampler across a
// deterministic worker pool and hands each shot's record table to visit:
// the frame-engine counterpart of the tableau engines' RunShots, and the
// noise.RecordSampler implementation that plugs the engine into
// noise.EstimateLogicalError.
//
// Shot i's records derive from orqcs.ShotSeed(seed, i) regardless of worker
// count or batch placement. visit may be called concurrently from different
// workers (always for distinct shots); the map is only valid for the
// duration of the call. A non-nil error from visit stops the run.
func (s *Sim) SampleRecords(shots int, seed int64, workers int, visit func(shot int, records map[int32]bool) error) error {
	if shots < 0 {
		return &noise.OptionError{Op: "frame.SampleRecords", Field: "Shots", Value: shots, Constraint: "must be ≥ 0"}
	}
	if workers < 0 {
		return &noise.OptionError{Op: "frame.SampleRecords", Field: "Workers", Value: workers, Constraint: "must be ≥ 0"}
	}
	return orqcs.RunPool(batches(shots), workers, s.NewBatch, func(b *Batch, bi int) error {
		b.runBatch(bi, shots, seed)
		for lane := 0; lane < b.n; lane++ {
			if err := visit(b.first+lane, b.Records(lane)); err != nil {
				return err
			}
		}
		return nil
	})
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
		for lane := 0; lane < b.n; lane++ {
			for j, ro := range ros {
				v := ro.ref
				if w.flips[j]>>uint(lane)&1 == 1 {
					v = -v
				}
				w.vals[j] = v
			}
			st.Add(b.first+lane, w.vals)
		}
		return nil
	}); err != nil {
		return nil, nil, err
	}
	means, stderrs = st.Results()
	return means, stderrs, nil
}
