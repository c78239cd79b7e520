package main

import (
	"runtime"
	"time"

	"tiscc/internal/noise"
	"tiscc/internal/telemetry"
)

// workers is the shot-pool size of every timed estimate (the benchmark
// host has two cores).
const workers = 2

// minRequests is the least number of timed requests a run makes, however
// short its --seconds.
const minRequests = 3

// estimateWorkload is a single-spec estimate workload: set the spec up,
// then run estimate requests of a fixed shot count against it.
type estimateWorkload struct {
	spec
	shots  int // shots per estimate request
	setups int // set-ups timed per untraced run (setup_s is their median)
}

// setup compiles the spec and its frame sampler: spec to ready-to-sample.
func (w estimateWorkload) setup(tr *tracer, parent int) (*pipeline, error) {
	pl, err := compile(w.spec, tr, parent)
	if err != nil {
		return nil, err
	}
	if err := pl.withSampler(tr, parent); err != nil {
		return nil, err
	}
	return pl, nil
}

// setupLayers are the set-up spans, in pipeline order.
var setupLayers = []string{"verify.experiment", "decoder.extract", "noise.compile", "decoder.dem_compile", "frame.setup"}

// passStats is one isolated pass over a request's shots: every per-shot
// layer called on its own, on the records the estimate itself samples.
type passStats struct {
	shots, errors, weight, empty int
	sample, handoff, readout     time.Duration
	syndrome, decode             time.Duration
}

func (a *passStats) add(b passStats) {
	a.shots += b.shots
	a.errors += b.errors
	a.weight += b.weight
	a.empty += b.empty
	a.sample += b.sample
	a.handoff += b.handoff
	a.readout += b.readout
	a.syndrome += b.syndrome
	a.decode += b.decode
}

// pass samples shots with one frame batch at a time and, per shot, calls
// Batch.Records, Outcome.Eval, Detectors.Syndrome and, on decoded specs,
// Graph.DecodeOutcome, timing each call. Syndrome and decode times are
// taken on decoded specs only: a raw estimate calls neither, and the raw
// syndrome is computed just for the output check.
func (pl *pipeline) pass(shots int, seed int64, tr *tracer, parent int) passStats {
	ps := passStats{shots: shots}
	begin := time.Now()
	b := pl.sim.NewBatch()
	var buf []int32
	for first := 0; first < shots; first += 64 {
		n := min(64, shots-first)
		t := time.Now()
		b.Run(first, n, seed)
		ps.sample += time.Since(t)
		for lane := 0; lane < n; lane++ {
			t0 := time.Now()
			recs := b.Records(lane)
			t1 := time.Now()
			bad := pl.outcome.Eval(recs) != pl.reference
			t2 := time.Now()
			buf = pl.dets.Syndrome(recs, buf[:0])
			t3 := time.Now()
			ps.handoff += t1.Sub(t0)
			ps.readout += t2.Sub(t1)
			if pl.graph != nil {
				bad = pl.graph.DecodeOutcome(recs) != pl.reference
				ps.syndrome += t3.Sub(t2)
				ps.decode += time.Since(t3)
			}
			if bad {
				ps.errors++
			}
			ps.weight += len(buf)
			if len(buf) == 0 {
				ps.empty++
			}
		}
	}
	tr.aggregate(parent, "frame.sample", begin, ps.sample)
	tr.aggregate(parent, "frame.handoff", begin, ps.handoff)
	tr.aggregate(parent, "expr.readout", begin, ps.readout)
	if pl.graph != nil {
		tr.aggregate(parent, "decoder.syndrome", begin, ps.syndrome)
		tr.aggregate(parent, "decoder.decode", begin, ps.decode)
	}
	return ps
}

// allocsPerShot counts heap allocations per shot of the frame hand-off
// (Batch.Run plus Batch.Records) and of Graph.DecodeOutcome, after one
// warm-up batch.
func (pl *pipeline) allocsPerShot(shots int, seed int64) (frameAllocs, decoderAllocs float64) {
	b := pl.sim.NewBatch()
	run := func(decode bool) uint64 {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for first := 0; first < shots; first += 64 {
			n := min(64, shots-first)
			b.Run(first, n, seed)
			for lane := 0; lane < n; lane++ {
				recs := b.Records(lane)
				if decode {
					pl.graph.DecodeOutcome(recs)
				}
			}
		}
		runtime.ReadMemStats(&m1)
		return m1.Mallocs - m0.Mallocs
	}
	run(pl.graph != nil)
	f := run(false)
	frameAllocs = float64(f) / float64(shots)
	if pl.graph != nil {
		if d := run(true); d > f {
			decoderAllocs = float64(d-f) / float64(shots)
		}
	}
	return frameAllocs, decoderAllocs
}

// checkOutputs applies the output checks every estimate run makes: the
// isolated pass must judge as many shots bad as the estimator did, and on
// the pinned seed errors and syndrome weight must equal the pinned values.
func checkOutputs(r *runResult, name string, seed int64, res noise.Result, ps passStats) {
	r.check(ps.errors == res.Errors, "isolated pass counts %d errors, estimate %d", ps.errors, res.Errors)
	r.checkErr(checkPinned(pinnedValues, name, seed, res.Errors, ps.weight))
	r.props["decoder.defects_per_shot"] = float64(ps.weight) / float64(ps.shots)
	r.props["decoder.empty_syndrome_frac"] = float64(ps.empty) / float64(ps.shots)
}

// decoderDelta is the change of the decoder counters between snapshots
// (zero on raw specs).
func decoderDelta(before, after *telemetry.Snapshot, name string) uint64 {
	if before == nil {
		return 0
	}
	return after.Counter(name) - before.Counter(name)
}

func (pl *pipeline) decoderMetrics() *telemetry.Snapshot {
	if pl.graph == nil {
		return nil
	}
	return pl.graph.Metrics()
}

// run is the untraced run: w.setups set-ups, then estimate requests on the
// last one for secs seconds (at least minRequests). Each request is paired
// with the calibration after it and each set-up with the mean of the median
// calibrations before and after it; the metrics are medians of normalized
// times (see calib.go).
func (w estimateWorkload) run(name string, seed int64, secs float64) (*runResult, error) {
	r := newRunResult()
	cal, err := newCalibrator(workers)
	if err != nil {
		return nil, err
	}
	defer cal.release()
	var setups, reqs []timed
	var pl *pipeline
	for i := 0; i < w.setups; i++ {
		before := cal.median3()
		t0 := time.Now()
		p, err := w.setup(nil, 0)
		wall := time.Since(t0)
		if err != nil {
			return nil, err
		}
		setups = append(setups, timed{wall: wall, calib: (before + cal.median3()) / 2})
		pl = p
	}
	before := pl.decoderMetrics()
	var first noise.Result
	start := time.Now()
	for len(reqs) < minRequests || time.Since(start).Seconds() < secs {
		t0 := time.Now()
		res, err := pl.estimate(w.shots, seed, workers)
		wall := time.Since(t0)
		if err != nil {
			return nil, err
		}
		reqs = append(reqs, timed{wall: wall, calib: cal.time(true)})
		if len(reqs) == 1 {
			first = res
		}
		r.check(res == first, "request %d result %+v differs from the first %+v", len(reqs), res, first)
	}
	after := pl.decoderMetrics()
	ps := pl.pass(w.shots, seed, nil, 0)
	checkOutputs(r, name, seed, first, ps)
	if pl.graph != nil {
		r.check(decoderDelta(before, after, "defects") == uint64(len(reqs)*ps.weight),
			"decoder counted %d defects over %d requests, syndrome pass %d per request",
			decoderDelta(before, after, "defects"), len(reqs), ps.weight)
		r.check(decoderDelta(before, after, "raw_fallbacks") == 0, "decoder fell back to raw readout %d times",
			decoderDelta(before, after, "raw_fallbacks"))
	}

	setupS := median(normalizedAll(setups))
	hit := median(normalizedAll(reqs))
	r.metric("setup_s", setupS)
	r.metric("time_to_result_s", setupS+hit)
	r.metric("shots_per_s", float64(w.shots)/hit)
	r.metric("hit_p50_ms", hit*1000)
	r.metric("peak_rss_mb", programRSSMB())
	r.note("wall_setup_s", median(walls(setups)), "s")
	r.note("wall_hit_p50_ms", median(walls(reqs))*1000, "ms")
	r.note("calib_ms", median(calibs(reqs))*1000, "ms")
	r.note("requests", float64(len(reqs)), "count")
	r.note("setups", float64(len(setups)), "count")
	r.note("errors", float64(first.Errors), "count")
	r.note("p_l", first.Rate, "frac")
	return r, nil
}

// trace is the traced run. One set-up with a span per layer; then, until
// secs have passed (at least once), a 1-worker estimate followed by an
// isolated pass of every per-shot layer over the same shots; then an
// untraced set-up with 1- and 2-worker estimates, for the tracing overhead,
// the parallel efficiency and the worker-count check.
func (w estimateWorkload) trace(name string, seed int64, secs float64, tr *tracer) (*runResult, error) {
	r := newRunResult()
	root, endRoot := tr.start(0, "run")
	defer endRoot()

	sid, endSetup := tr.start(root, "setup")
	t0 := time.Now()
	pl, err := w.setup(tr, sid)
	setupS := time.Since(t0).Seconds()
	endSetup()
	if err != nil {
		return nil, err
	}
	r.layer("orqcs.instructions", float64(pl.prog.NumInstrs()))
	r.layer("noise.fault_sites", float64(pl.sched.NumFaultSites()))
	if pl.graph != nil {
		r.layer("decoder.edges", float64(len(pl.graph.Edges())))
		r.layer("decoder.undecomposed", float64(pl.graph.UndecomposedMechanisms()))
	}
	sum := 0.0
	for _, l := range setupLayers {
		s := tr.total(l)
		sum += s
		r.layer(l+"_s", s)
		r.layer(l+"_share", s/setupS)
	}
	residual := (setupS - sum) / setupS
	r.layer("setup.residual_share", residual)
	// The layers run one after the other inside the set-up interval, so
	// they can exceed it (or leave nothing of it) only if their spans
	// overlap or are counted twice.
	r.check(residual >= 0 && residual < 1, "set-up layers %v leave a residual share of %v, want [0,1)", setupLayers, residual)

	before := pl.decoderMetrics()
	var est1 []time.Duration
	var first noise.Result
	var agg passStats
	start := time.Now()
	for len(est1) == 0 || time.Since(start).Seconds() < secs {
		rid, endRound := tr.start(root, "round")
		_, endEst := tr.start(rid, "noise.estimate_1w")
		t := time.Now()
		res, err := pl.estimate(w.shots, seed, 1)
		est1 = append(est1, time.Since(t))
		endEst()
		if err != nil {
			endRound()
			return nil, err
		}
		if len(est1) == 1 {
			first = res
		}
		r.check(res == first, "round %d result %+v differs from the first %+v", len(est1), res, first)
		ps := pl.pass(w.shots, seed, tr, rid)
		endRound()
		checkOutputs(r, name, seed, res, ps)
		agg.add(ps)
	}
	after := pl.decoderMetrics()
	decoded := decoderDelta(before, after, "shots")
	fallbacks := decoderDelta(before, after, "raw_fallbacks")
	r.check(fallbacks == 0, "decoder fell back to raw readout %d times", fallbacks)
	r.layer("decoder.raw_fallbacks", float64(fallbacks))
	if decoded > 0 {
		r.layer("decoder.grow_rounds_per_shot", float64(decoderDelta(before, after, "growth_rounds"))/float64(decoded))
	}

	estTotal := 0.0
	for _, d := range est1 {
		estTotal += d.Seconds()
	}
	perShot := func(metric string, d time.Duration) {
		r.layer(metric+"_us_per_shot", d.Seconds()*1e6/float64(agg.shots))
		r.layer(metric+"_share", d.Seconds()/estTotal)
	}
	perShot("frame.sample", agg.sample)
	perShot("frame.handoff", agg.handoff)
	perShot("expr.readout", agg.readout)
	perShot("decoder.syndrome", agg.syndrome)
	perShot("decoder.decode", agg.decode)
	// The estimator's own per-shot path: sample, hand off, then judge the
	// shot by decoding (decoded specs, whose decode includes its syndrome
	// pass) or by the raw readout formula.
	judge := agg.readout
	if pl.graph != nil {
		judge = agg.decode
	}
	r.layer("noise.estimate_residual_share", (estTotal-(agg.sample+agg.handoff+judge).Seconds())/estTotal)
	r.layer("decoder.defects_per_shot", float64(agg.weight)/float64(agg.shots))
	r.layer("decoder.empty_syndrome_frac", float64(agg.empty)/float64(agg.shots))

	fa, da := pl.allocsPerShot(min(w.shots, 256), seed)
	r.layer("frame.allocs_per_shot", fa)
	r.layer("decoder.allocs_per_shot", da)

	_, endU := tr.start(root, "untraced")
	t := time.Now()
	pl2, err := w.setup(nil, 0)
	setupU := time.Since(t).Seconds()
	if err != nil {
		endU()
		return nil, err
	}
	t = time.Now()
	res1, err := pl2.estimate(w.shots, seed, 1)
	estU1 := time.Since(t).Seconds()
	if err != nil {
		endU()
		return nil, err
	}
	t = time.Now()
	res2, err := pl2.estimate(w.shots, seed, workers)
	estU2 := time.Since(t).Seconds()
	endU()
	if err != nil {
		return nil, err
	}
	r.check(res1 == first, "untraced 1-worker result %+v differs from traced %+v", res1, first)
	r.check(res2 == first, "untraced %d-worker result %+v differs from traced 1-worker %+v", workers, res2, first)
	est1Med := median(seconds(est1))
	r.layer("trace_overhead", (setupS+est1Med)/(setupU+estU1)-1)
	r.layer("noise.parallel_efficiency", est1Med/(workers*estU2))
	r.note("rounds", float64(len(est1)), "count")
	r.note("errors", float64(first.Errors), "count")
	return r, nil
}
