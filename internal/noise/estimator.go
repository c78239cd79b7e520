package noise

import (
	"errors"
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
	// shot's logical outcome is the decoder's corrected value instead of the
	// bare XOR of the transversal records. This is how an error-correcting
	// decoder (internal/decoder's union-find matching) plugs into the
	// estimator without this package importing it.
	Decoder Decoder
	// Sampler is the estimator's only record source and is required: the
	// Pauli-frame engine (internal/frame's Sim) plugs in here without this
	// package importing it. It must have been compiled against the
	// estimated schedule (Sampler.Schedule() == s).
	Sampler RecordSampler
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

// Planes is one batch of up to 64 shots in record-major form: Words[id]
// holds measurement record id's outcome for every shot of the batch, bit i
// for lane i, the shot with index First+i. Only the N lanes of the Lanes
// mask are sampled; the bits of other lanes are unspecified, so every
// consumer masks with Lanes. Words has one word per record id of the
// program, len(Words) == Program.NumRecords().
type Planes struct {
	First int      // shot index of lane 0
	N     int      // sampled lanes: 1..64
	Lanes uint64   // mask of the sampled lanes, the low N bits
	Words []uint64 // record words, indexed by record id
	// Fired lists the batch's fault firings, packed
	// site<<32 | branch<<6 | lane and ascending by site, exactly as
	// Schedule.FiredBatch draws them from the lanes' shot seeds: the faults
	// the sampler applied. Empty for a noiseless batch.
	Fired []uint64
}

// ShotObserver receives the judged batches of an estimate: bit i of bad
// reports whether lane i's logical outcome disagreed with the noiseless
// reference (only the bits of p.Lanes are meaningful). Lane i's records
// derive from orqcs.ShotSeed(Options.Seed, p.First+i). Implementations
// must be safe for concurrent use.
type ShotObserver interface {
	ObserveBatch(p *Planes, bad uint64)
}

// RecordSampler produces the record planes of noisy shots without exposing
// an engine: shot i's records derive from orqcs.ShotSeed(seed, i) for any
// worker count and batching; batches cover [0, shots) without overlap;
// visit may be called concurrently for distinct batches; the planes are
// only valid during the call; a non-nil visit error stops the run and is
// returned. Schedule reports the fault schedule the sampler draws from.
type RecordSampler interface {
	SamplePlanes(shots int, seed int64, workers int, visit func(p *Planes) error) error
	Schedule() *Schedule
}

// Decoder turns a batch of noisy shots' record planes into corrected
// logical outcomes (syndrome decoding plus observable readout).
// Implementations must be safe for concurrent use: EstimateLogicalError
// calls DecodePlanes from every sampling worker, and the planes are only
// valid for the duration of the call.
type Decoder interface {
	// CheckRecords reports an error unless every record id the decoder
	// reads lies in [0, n); the estimator calls it once before sampling
	// n-record planes.
	CheckRecords(n int) error
	// DecodePlanes returns the batch's corrected outcome word (bit i is
	// lane i's logical outcome) and the lanes on which the decoder fell
	// back to the raw readout. Bits outside p.Lanes are unspecified.
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

// EstimateLogicalError runs noisy shots of the schedule's program, decodes
// each shot's logical outcome by evaluating the outcome formula against the
// shot's measurement records (the paper's Sec 4.5 post-processing), and
// reports the rate at which it disagrees with the noiseless reference,
// with a 95% Wilson confidence interval.
//
// Options.Sampler is the only record source. Programs with T gates are
// rejected: their shots are quasi-probability branches that carry a ±√2
// weight per T gate, so an unweighted count of their records is not a
// physical error rate.
//
// Shots are sampled and judged a batch at a time on record planes (64
// shots per frame batch): the raw readout is one word XOR per record of the
// formula, and a decoder sees the whole batch. The run is deterministic in
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
	nrec := s.prog.NumRecords()
	j := &judge{outcome: outcome, dec: opt.Decoder, obs: opt.Observer, nrec: nrec}
	if reference {
		j.ref = ^uint64(0)
	}
	if opt.Decoder != nil {
		if err := opt.Decoder.CheckRecords(nrec); err != nil {
			return Result{}, fmt.Errorf("noise: decoder: %w", err)
		}
	} else if outcome.HasVirtual() {
		return Result{}, fmt.Errorf("noise: outcome formula references virtual records: %v", outcome)
	} else if err := outcome.CheckRecords(nrec); err != nil {
		return Result{}, fmt.Errorf("noise: outcome formula: %w", err)
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
	err := opt.Sampler.SamplePlanes(shots, opt.Seed, opt.Workers, func(p *Planes) error {
		bad, fb, err := j.batch(p)
		if err != nil {
			return err
		}
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
// decoder when one is configured, via the raw readout formula otherwise.
type judge struct {
	outcome expr.Expr
	ref     uint64 // the reference outcome on every lane
	nrec    int    // record words a batch must carry
	dec     Decoder
	obs     ShotObserver
}

// batch judges one batch and feeds the observer before the outcome enters
// the counting fold, so observation can never perturb counting. Only the
// bits of p.Lanes are set in bad and fallback.
//
//tiscc:hotpath
func (j *judge) batch(p *Planes) (bad, fallback uint64, err error) {
	if len(p.Words) < j.nrec {
		return 0, 0, errShortPlanes
	}
	var out uint64
	if j.dec != nil {
		out, fallback = j.dec.DecodePlanes(p)
	} else {
		out = j.outcome.EvalWords(p.Words)
	}
	bad = (out ^ j.ref) & p.Lanes
	if j.obs != nil {
		j.obs.ObserveBatch(p, bad)
	}
	return bad, fallback & p.Lanes, nil
}

// errStop signals the worker pool that the target precision is reached.
var errStop = fmt.Errorf("noise: target standard error reached")

// errShortPlanes reports a sampler whose planes lack the program's records:
// one compiled for a different program.
var errShortPlanes = errors.New("noise: sampler planes carry fewer records than the program: sampler compiled for another program")
