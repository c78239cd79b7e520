// Package diag is the estimation pipeline's diagnostics layer: it turns the
// single number a sweep point reports (decoded p_L with a CI) into an
// explanation of where that number comes from and how far along it is.
//
// Three legs, all opt-in and all outside the sampling hot path:
//
//   - error-budget attribution (Collector + AttributionReport): every judged
//     batch's fired faults — the list the sampler drew and applied, handed
//     on in noise.Planes.Fired — are accumulated per error-budget channel
//     (gate class × fault kind) split by shot outcome, yielding fire
//     counts, smoothed fail/ok odds ratios, and an empirical per-channel
//     decomposition of the logical error rate that sums to p_L exactly;
//   - decoder calibration introspection (DetectorReport): per-detector
//     observed fire rates against the DEM-predicted marginals
//     (Graph.PredictedDetectorRates, read off the decoding graph's retained
//     effect table) with binomial z-scores — the
//     Stim-style calibration residual check — plus failure localization
//     (which detectors fired on the shots the decoder got wrong, and sampled
//     defect sets of the first failures);
//   - streaming sweep progress (ProgressWriter): schema-versioned NDJSON
//     batch heartbeats from the estimator's in-order fold.
//
// The Collector implements noise.ShotObserver, one call per judged batch;
// calls may be concurrent, so accumulation goes through pooled per-worker
// scratches (bounded, allocated once per worker) merged only at report
// time — the same single-owner shard discipline as internal/telemetry.
// Per-detector counts are popcounts of the detector words the decoder left
// in the batch's planes (noise.Planes.Dets); only the per-lane channel fold
// and the failure samples work lane by lane.
// Observation is read-only with respect to the run: records stay
// bit-identical with and without it.
package diag

import (
	"math/bits"
	"sync"

	"tiscc/internal/decoder"
	"tiscc/internal/noise"
)

// maxFailureSamples bounds the localized failing-shot defect sets kept per
// scratch (and per merged report): enough to debug, bounded by construction.
const maxFailureSamples = 8

// channel is one error-budget channel: the (gate class, fault kind) pair of
// a set of fault sites.
type channel struct {
	kind  noise.FaultKind
	class noise.GateClass
	sites int
}

// Collector accumulates per-shot diagnostics for one estimation run. Create
// one per run with NewCollector, pass it as noise.Options.Observer, and read
// the reports at quiescence (after EstimateLogicalError returns).
type Collector struct {
	sched *noise.Schedule
	graph *decoder.Graph     // nil: attribution only, no detector stats
	dets  *decoder.Detectors // the graph's detectors (nil with it)

	chans    []channel
	siteChan []uint16 // fault site → dense channel index

	mu        sync.Mutex
	scratches []*scratch
	pool      sync.Pool
}

// scratch is one worker's accumulation state: every slice is allocated once
// at full size when the worker first observes a shot, so observation itself
// performs no heap allocation beyond the bounded failure samples.
type scratch struct {
	perShot []uint32 // per-lane, per-channel fires of the current batch, lane-major

	shotsOK, shotsFail uint64
	chanOK, chanFail   []uint64  // per-channel fire counts by outcome
	plNum              []float64 // per-channel fractional failure attribution
	detFired, detFail  []uint64  // per-detector fire counts (all / failing shots)
	failures           []FailureSample
}

// FailureSample localizes one shot the decoder (or raw readout) got wrong:
// the shot index and the detectors that fired on it.
type FailureSample struct {
	Shot    int     `json:"shot"`
	Defects []int32 `json:"defects"`
}

// NewCollector builds a collector for one estimation run: sched must be the
// run's schedule (its fault sites key the channels of Planes.Fired). g,
// the run's decoding graph (nil on raw-readout runs), additionally enables
// per-detector observed-rate accumulation and failure localization from
// the decoded batches' detector words, and the calibration report's
// predicted rates.
func NewCollector(sched *noise.Schedule, g *decoder.Graph) *Collector {
	c := &Collector{sched: sched, graph: g}
	if g != nil {
		c.dets = g.Detectors()
	}
	n := sched.NumFaultSites()
	dense := make([]int16, int(noise.NumFaultKinds)*int(noise.NumGateClasses))
	for i := range dense {
		dense[i] = -1
	}
	c.siteChan = make([]uint16, n)
	for k := 0; k < n; k++ {
		f := c.sched.SiteFault(k)
		cl := c.sched.SiteClass(k)
		key := int(f.Kind)*int(noise.NumGateClasses) + int(cl)
		if dense[key] < 0 {
			dense[key] = int16(len(c.chans))
			c.chans = append(c.chans, channel{kind: f.Kind, class: cl})
		}
		ci := dense[key]
		c.chans[ci].sites++
		c.siteChan[k] = uint16(ci)
	}
	c.pool.New = func() any {
		sc := &scratch{
			perShot:  make([]uint32, 64*len(c.chans)),
			chanOK:   make([]uint64, len(c.chans)),
			chanFail: make([]uint64, len(c.chans)),
			plNum:    make([]float64, len(c.chans)),
		}
		if c.dets != nil {
			nd := c.dets.NumDetectors()
			sc.detFired = make([]uint64, nd)
			sc.detFail = make([]uint64, nd)
		}
		c.mu.Lock()
		c.scratches = append(c.scratches, sc)
		c.mu.Unlock()
		return sc
	}
	return c
}

// ObserveBatch implements noise.ShotObserver: it counts the batch's fired
// faults (p.Fired) per lane and error-budget channel and, lane by lane,
// buckets them by outcome; when a detector structure is attached, it adds
// the batch's detector words (p.Dets, which the decoder filled) to the
// per-detector observed-rate counters (popcounts) and localizes the first
// failing shots. A batch without detector words (raw readout) adds nothing
// to those. Safe for concurrent use (pooled per-worker scratch).
func (c *Collector) ObserveBatch(p *noise.Planes, bad uint64) {
	sc := c.pool.Get().(*scratch)
	nc := len(c.chans)
	for _, w := range p.Fired {
		sc.perShot[int(noise.FiredLane(w))*nc+int(c.siteChan[noise.FiredSite(w)])]++
	}
	for lane := 0; lane < p.N; lane++ {
		c.observeShot(sc, sc.perShot[lane*nc:(lane+1)*nc], bad>>uint(lane)&1 == 1)
	}
	if fired := p.Dets; c.dets != nil && len(fired) == len(sc.detFired) {
		for i, w := range fired {
			w &= p.Lanes
			sc.detFired[i] += uint64(bits.OnesCount64(w))
			sc.detFail[i] += uint64(bits.OnesCount64(w & bad))
		}
		for w := bad & p.Lanes; w != 0 && len(sc.failures) < maxFailureSamples; w &= w - 1 {
			lane := uint(bits.TrailingZeros64(w))
			f := FailureSample{Shot: p.First + int(lane)}
			for i, fw := range fired {
				if fw>>lane&1 == 1 {
					f.Defects = append(f.Defects, int32(i))
				}
			}
			sc.failures = append(sc.failures, f)
		}
	}
	c.pool.Put(sc)
}

// observeShot buckets one shot's per-channel fire counts by outcome and
// clears them.
func (c *Collector) observeShot(sc *scratch, counts []uint32, bad bool) {
	if bad {
		sc.shotsFail++
		// Distribute this failure fractionally across the channels that
		// fired, by fire share: the per-channel sums then add up to the
		// total failure count exactly, so the attribution table's p_L
		// contributions sum to p_L by construction. A failing shot always
		// has ≥ 1 fired fault (a fault-free shot reproduces the noiseless
		// reference bit-for-bit), but guard the division anyway.
		var total uint32
		for _, n := range counts {
			total += n
		}
		if total > 0 {
			for ch, n := range counts {
				sc.chanFail[ch] += uint64(n)
				sc.plNum[ch] += float64(n) / float64(total)
			}
		}
	} else {
		sc.shotsOK++
		for ch, n := range counts {
			sc.chanOK[ch] += uint64(n)
		}
	}
	clear(counts)
}

// merged folds every worker scratch into one totals view. Only call at
// quiescence (no ObserveBatch in flight).
func (c *Collector) merged() *scratch {
	m := &scratch{
		chanOK:   make([]uint64, len(c.chans)),
		chanFail: make([]uint64, len(c.chans)),
		plNum:    make([]float64, len(c.chans)),
	}
	if c.dets != nil {
		nd := c.dets.NumDetectors()
		m.detFired = make([]uint64, nd)
		m.detFail = make([]uint64, nd)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, sc := range c.scratches {
		m.shotsOK += sc.shotsOK
		m.shotsFail += sc.shotsFail
		for i := range c.chans {
			m.chanOK[i] += sc.chanOK[i]
			m.chanFail[i] += sc.chanFail[i]
			m.plNum[i] += sc.plNum[i]
		}
		for i := range m.detFired {
			m.detFired[i] += sc.detFired[i]
			m.detFail[i] += sc.detFail[i]
		}
		m.failures = append(m.failures, sc.failures...)
	}
	// Deterministic localization sample regardless of worker scheduling:
	// keep the lowest-numbered failing shots.
	sortFailures(m.failures)
	if len(m.failures) > maxFailureSamples {
		m.failures = m.failures[:maxFailureSamples]
	}
	return m
}

func sortFailures(fs []FailureSample) {
	for i := 1; i < len(fs); i++ {
		for j := i; j > 0 && fs[j].Shot < fs[j-1].Shot; j-- {
			fs[j], fs[j-1] = fs[j-1], fs[j]
		}
	}
}
