package noise

import (
	"fmt"
	"math"

	"tiscc/internal/expr"
	"tiscc/internal/orqcs"
)

// OptionError reports an invalid Options field in one consistent format,
// shared by every estimation entry point (EstimateLogicalError and the frame
// sampler paths), always naming the offending field and value.
type OptionError struct {
	Op         string // entry point, e.g. "noise.EstimateLogicalError"
	Field      string // Options field name, e.g. "Shots"
	Value      any    // offending value
	Constraint string // what the field must satisfy, e.g. "must be ≥ 1"
}

func (e *OptionError) Error() string {
	return fmt.Sprintf("%s: invalid Options.%s = %v (%s)", e.Op, e.Field, e.Value, e.Constraint)
}

// Options configures a logical-error-rate estimation run.
type Options struct {
	// Shots is the maximum number of noisy shots (default 1000).
	Shots int
	// Seed is the base seed; shot i runs with orqcs.ShotSeed(Seed, i).
	Seed int64
	// Workers sizes the shot pool (≤ 0 selects GOMAXPROCS). Results are
	// identical for every worker count.
	Workers int
	// TargetStdErr, when positive, stops the run early once the estimate's
	// Wilson-interval standard error (half-width / z) drops to the target.
	// The decision is taken only at Batch boundaries, so early-stopped runs
	// are an exact prefix of the full run and stay deterministic.
	TargetStdErr float64
	// Batch is the early-stopping check granularity in shots (default 256).
	Batch int
	// Decoder, when non-nil, replaces the raw outcome-formula readout: each
	// shot's logical outcome is the decoder's corrected value, computed in
	// detector space from the batch's fault firings, instead of the bare
	// outcome formula. This is how an error-correcting decoder
	// (internal/decoder's union-find matching) plugs into the estimator
	// without this package importing it. It must have been compiled
	// against the estimated schedule (Decoder.CheckSchedule).
	Decoder Decoder
	// Sampler is the estimator's only shot source and is required: the
	// Pauli-frame engine (internal/frame's Sim) plugs in here without this
	// package importing it. It must have been compiled against the
	// estimated schedule (Sampler.Schedule() == s). Every estimate reads
	// its fire-only planes (SampleFired): no batch walks the program.
	Sampler Sampler
	// Observer, when non-nil, receives every sampled batch with its judged
	// outcomes (the diagnostics layer's attribution/calibration hook).
	// Calls may be concurrent for distinct batches and the planes are only
	// valid during the call. Observation happens outside the counting fold
	// and touches no RNG stream, so results stay bit-identical with and
	// without it; in an early-stopped run the observer may see the rest of
	// the batch that stopped the run and batches beyond it. The default nil
	// path is untouched (the sampling loop keeps 0 allocs per batch).
	Observer ShotObserver
	// Progress, when non-nil, is called at every Batch boundary of the
	// in-order error fold with the counted prefix so far — the streaming
	// heartbeat hook (-progress). Enabling it routes the no-early-stop path
	// through the same strict-shot-order fold the early-stopping path uses;
	// the counted result is identical either way.
	Progress func(done, errors int, stopped bool)
}

// Planes is one batch of up to 64 shots: lane i is the shot with index
// First+i. Only the N lanes of the Lanes mask are sampled; the bits of
// other lanes are unspecified, so every consumer masks with Lanes. A
// sampled batch carries its fault firings and no measurement records: the
// sampler drew the faults and walked no instruction, and an effect table
// (Effects.Fire) turns the firings into check and observable flips.
type Planes struct {
	First int    // shot index of lane 0
	N     int    // sampled lanes: 1..64
	Lanes uint64 // mask of the sampled lanes, the low N bits
	// Fired lists the batch's fault firings, packed
	// site<<32 | lane<<4 | branch (FiredSite, FiredLane, FiredBranch) and
	// ascending, exactly as Schedule.FiredBatch draws them from the lanes'
	// shot seeds: the faults the sampler applied. Empty for a noiseless
	// batch.
	Fired []uint64
	// Dets holds the batch's check words once an effect table has read
	// it (Effects.Fire; a Decoder's detectors): bit i of Dets[j] is set
	// when check j fires on lane i. The table builds them from Fired and
	// sizes the slice on first use; they stay valid until the planes are
	// sampled again. Empty on raw-readout batches, whose table has no
	// checks.
	Dets []uint64
}

// ShotObserver receives the judged batches of an estimate: bit i of bad
// reports whether lane i's logical outcome disagreed with the noiseless
// reference (only the bits of p.Lanes are meaningful). Lane i derives from
// orqcs.ShotSeed(Options.Seed, p.First+i). A decoded estimate's planes
// carry the detector words (Dets) the decoder filled; a raw-readout
// estimate's carry none. Implementations must be safe for concurrent use.
type ShotObserver interface {
	ObserveBatch(p *Planes, bad uint64)
}

// Sampler produces the planes of noisy shots without exposing an engine:
// shot i derives from orqcs.ShotSeed(seed, i) for any worker count and
// batching; batches cover [0, shots) without overlap; visit may be called
// concurrently for distinct batches; the planes are only valid during the
// call; a non-nil visit error stops the run and is returned. SampleFired
// hands over each batch's fault firings (Planes.Fired). Schedule reports
// the fault schedule the sampler draws from.
type Sampler interface {
	SampleFired(shots int, seed int64, workers int, visit func(p *Planes) error) error
	Schedule() *Schedule
}

// Decoder turns a batch of noisy shots' fault firings into corrected
// logical outcomes (syndrome decoding plus observable readout) in detector
// space: it reads p.Fired (a batch carries no records). Implementations must be
// safe for concurrent use: EstimateLogicalError calls DecodePlanes from
// every sampling worker, and the planes are only valid for the duration
// of the call.
type Decoder interface {
	// CheckSchedule reports an error unless the decoder was compiled
	// against s: its symptoms are indexed by s's fault sites.
	// The estimator calls it once before sampling.
	CheckSchedule(s *Schedule) error
	// DecodePlanes fills p.Dets from p.Fired and returns the batch's
	// corrected outcome word (bit i is lane i's logical outcome) and the
	// lanes on which the decoder fell back to the raw readout. Bits
	// outside p.Lanes are unspecified.
	DecodePlanes(p *Planes) (outcome, fallback uint64)
}

// Result reports a logical-error-rate estimate.
type Result struct {
	Shots     int     // noisy shots executed (counted toward the estimate)
	Requested int     // shot cap of the run (== Shots unless stopped early)
	Errors    int     // shots whose decoded logical outcome differed from the reference
	Rate      float64 // Errors / Shots
	StdErr    float64 // binomial standard error √(p̂(1−p̂)/n)
	// WilsonLow and WilsonHigh bound the 95% Wilson score interval, which
	// stays meaningful at zero observed errors; HalfWidth is half its width
	// (the precision actually reached, the early-stopping criterion × z).
	WilsonLow, WilsonHigh float64
	HalfWidth             float64
	// EarlyStopBatch is the 1-based batch index at which the Wilson criterion
	// stopped the run, 0 if it ran to the shot cap.
	EarlyStopBatch int
	Reference      bool // the noiseless logical outcome compared against
	// RawFallbacks counts the counted shots whose decode could not
	// neutralize every cluster and fell back to the raw readout (always 0
	// without a decoder).
	RawFallbacks int
}

func (r Result) String() string {
	return fmt.Sprintf("p_L = %.3e ± %.1e (%d/%d shots, 95%% CI [%.3e, %.3e])",
		r.Rate, r.StdErr, r.Errors, r.Shots, r.WilsonLow, r.WilsonHigh)
}

// z95 is the 97.5th standard-normal percentile (two-sided 95%).
const z95 = 1.959963984540054

// Wilson returns the 95% Wilson score interval for errors successes in
// shots trials.
func Wilson(errors, shots int) (lo, hi float64) {
	if shots == 0 {
		return 0, 1
	}
	n := float64(shots)
	ph := float64(errors) / n
	denom := 1 + z95*z95/n
	center := (ph + z95*z95/(2*n)) / denom
	half := z95 * math.Sqrt(ph*(1-ph)/n+z95*z95/(4*n*n)) / denom
	lo, hi = center-half, center+half
	if lo < 0 {
		lo = 0
	}
	if hi > 1 {
		hi = 1
	}
	return lo, hi
}

// result assembles a Result from raw counts.
func result(errors, shots, requested, stopBatch int, reference bool) Result {
	r := Result{Shots: shots, Requested: requested, Errors: errors,
		EarlyStopBatch: stopBatch, Reference: reference}
	if shots > 0 {
		r.Rate = float64(errors) / float64(shots)
		r.StdErr = math.Sqrt(r.Rate * (1 - r.Rate) / float64(shots))
	}
	r.WilsonLow, r.WilsonHigh = Wilson(errors, shots)
	r.HalfWidth = (r.WilsonHigh - r.WilsonLow) / 2
	return r
}

// wilsonStdErr is the Wilson half-width divided by z: a standard-error
// analogue that stays positive (and shrinking) at zero observed errors,
// which makes it a safe early-stopping criterion.
func wilsonStdErr(errors, shots int) float64 {
	lo, hi := Wilson(errors, shots)
	return (hi - lo) / (2 * z95)
}

// EstimateLogicalError runs noisy shots of the schedule's program, reads
// each shot's logical outcome — the outcome formula over the shot's
// measurement records (the paper's Sec 4.5 post-processing), or the
// decoder's correction — and reports the rate at which it disagrees with
// the noiseless reference, with a 95% Wilson confidence interval.
//
// Options.Sampler is the only shot source. Programs with T gates are
// rejected: their shots are quasi-probability branches that carry a ±√2
// weight per T gate, so an unweighted count of their records is not a
// physical error rate.
//
// Shots are sampled and judged a batch at a time (64 shots per frame
// batch), in detector space: the sampler draws each batch's faults and
// walks no instruction. A decoder XORs each firing's symptom into the
// batch's detector words and decodes them. The raw readout compiles, once
// per call, the effect table of the outcome formula alone (CompileEffects,
// which fails unless the formula is deterministic on a noiseless run):
// each lane starts at the formula's value on the program's reference trace
// and every firing that flips the formula flips it. The run is deterministic in
// (schedule, outcome, Options): error bits are folded in strict shot order
// and early stopping truncates the fixed shot sequence only at
// Options.Batch boundaries, so neither the worker count nor scheduling can
// change the result. Every run counts through that one ordered fold, with
// or without early stopping and progress, and uses one worker pool, so
// engines are allocated once.
func EstimateLogicalError(s *Schedule, outcome expr.Expr, reference bool, opt Options) (Result, error) {
	const op = "noise.EstimateLogicalError"
	if opt.Shots < 0 {
		return Result{}, &OptionError{Op: op, Field: "Shots", Value: opt.Shots, Constraint: "must be ≥ 0"}
	}
	if opt.Workers < 0 {
		return Result{}, &OptionError{Op: op, Field: "Workers", Value: opt.Workers, Constraint: "must be ≥ 0"}
	}
	if opt.Batch < 0 {
		return Result{}, &OptionError{Op: op, Field: "Batch", Value: opt.Batch, Constraint: "must be ≥ 0"}
	}
	if !s.prog.Clifford() {
		return Result{}, fmt.Errorf("noise: program has %d T gates: its shots are weighted quasi-probability branches, so counting their records gives no logical error rate", s.prog.NumTGates())
	}
	if opt.Sampler == nil {
		return Result{}, &OptionError{Op: op, Field: "Sampler", Value: nil, Constraint: "must be set; frame.New compiles one"}
	}
	if opt.Sampler.Schedule() != s {
		return Result{}, &OptionError{Op: op, Field: "Sampler", Value: fmt.Sprintf("%T", opt.Sampler), Constraint: "must be compiled against the estimated schedule"}
	}
	j := &judge{dec: opt.Decoder, obs: opt.Observer}
	if reference {
		j.ref = ^uint64(0)
	}
	if opt.Decoder != nil {
		if err := opt.Decoder.CheckSchedule(s); err != nil {
			return Result{}, &OptionError{Op: op, Field: "Decoder", Value: err, Constraint: "must be compiled against the estimated schedule"}
		}
	} else if err := j.compileRaw(s, outcome); err != nil {
		return Result{}, err
	}
	shots := opt.Shots
	if shots <= 0 {
		shots = 1000
	}
	batch := opt.Batch
	if batch == 0 {
		batch = 256
	}
	// The ordered fold counts errors in strict shot order, one sampled
	// batch per entry, and takes the early-stopping decision lane by lane
	// at every Options.Batch boundary, so the counted prefix depends only on
	// the shot sequence, never on worker scheduling or sampler batching: an
	// early-stopped run is an exact prefix of the full run. Shots completed
	// beyond the cutoff before the pool drains are discarded uncounted.
	var errs, fbs, done, stopBatch int
	fold := orqcs.NewOrdered(func(first, n int, v verdict) bool {
		for lane := 0; lane < n; lane++ {
			errs += int(v.bad >> uint(lane) & 1)
			fbs += int(v.fallback >> uint(lane) & 1)
			done = first + lane + 1
			if done%batch != 0 {
				continue
			}
			stop := opt.TargetStdErr > 0 && wilsonStdErr(errs, done) <= opt.TargetStdErr
			if stop {
				stopBatch = done / batch
			}
			if opt.Progress != nil {
				opt.Progress(done, errs, stop)
			}
			if stop {
				return true
			}
		}
		return false
	})
	err := opt.Sampler.SampleFired(shots, opt.Seed, opt.Workers, func(p *Planes) error {
		bad, fb := j.batch(p)
		if fold.Add(p.First, p.N, verdict{bad: bad, fallback: fb}) {
			return errStop
		}
		return nil
	})
	if err != nil && err != errStop {
		return Result{}, err
	}
	r := result(errs, done, shots, stopBatch, reference)
	r.RawFallbacks = fbs
	return r, nil
}

// verdict is one judged batch in the ordered fold.
type verdict struct{ bad, fallback uint64 }

// judge turns a sampled batch into its error and fallback words: via the
// decoder when one is configured, via the outcome formula's effect table
// otherwise.
type judge struct {
	ref uint64 // the reference outcome on every lane
	dec Decoder
	obs ShotObserver
	// The raw readout: the formula's effect table and its noiseless value
	// on every lane.
	raw       *Effects
	noiseless uint64
}

// compileRaw prepares the raw readout of outcome over s: the formula's
// effect table and its value on the program's reference trace.
func (j *judge) compileRaw(s *Schedule, outcome expr.Expr) error {
	if outcome.HasVirtual() {
		return fmt.Errorf("noise: outcome formula references virtual records: %v", outcome)
	}
	if err := outcome.CheckRecords(s.prog.NumRecords()); err != nil {
		return fmt.Errorf("noise: outcome formula: %w", err)
	}
	ref, err := s.prog.Reference()
	if err != nil {
		return err
	}
	// The formula is the table's observable: a formula that is not
	// deterministic fails here, named as "the observable".
	if j.raw, err = CompileEffects(s, nil, outcome.IDs); err != nil {
		return err
	}
	j.noiseless = outcome.EvalWords(ref.Words)
	return nil
}

// batch judges one batch and feeds the observer before the outcome enters
// the counting fold, so observation can never perturb counting. Only the
// bits of p.Lanes are set in bad and fallback.
//
//tiscc:hotpath
func (j *judge) batch(p *Planes) (bad, fallback uint64) {
	var out uint64
	if j.dec != nil {
		out, fallback = j.dec.DecodePlanes(p)
	} else {
		_, flip := j.raw.Fire(p)
		out = j.noiseless ^ flip
	}
	bad = (out ^ j.ref) & p.Lanes
	if j.obs != nil {
		j.obs.ObserveBatch(p, bad)
	}
	return bad, fallback & p.Lanes
}

// errStop signals the worker pool that the target precision is reached.
var errStop = fmt.Errorf("noise: target standard error reached")
