package diag

import (
	"errors"
	"fmt"
	"math"
	"strings"
)

// DetectorStat is one row of the decoder calibration report: a detector's
// space-time coordinates, its observed fire rate over the run, and the rate
// the detector error model predicts for it.
type DetectorStat struct {
	ID    int    `json:"id"`
	I     int    `json:"i"` // plaquette face coordinates
	J     int    `json:"j"`
	Round int    `json:"round"`
	Type  string `json:"type"` // stabilizer type (X/Z)

	Fired     uint64 `json:"fired"`      // shots on which the detector fired
	FailFired uint64 `json:"fail_fired"` // ... restricted to failing shots

	Observed  float64 `json:"observed"`  // Fired / Shots
	Predicted float64 `json:"predicted"` // DEM odd-fire marginal

	// Z is the binomial calibration residual (observed − predicted) /
	// √(p(1−p)/n); |Z| beyond ~5 over thousands of shots means sampler and
	// detector error model disagree.
	Z float64 `json:"z"`
}

// DetectorReport is the decoder calibration introspection of one run:
// per-detector observed-vs-predicted rates plus failure localization (which
// detectors fired on the shots the decoder got wrong).
type DetectorReport struct {
	Shots     uint64          `json:"shots"`
	MaxAbsZ   float64         `json:"max_abs_z"`
	Detectors []DetectorStat  `json:"detectors"`
	Failures  []FailureSample `json:"failures,omitempty"`
}

// DetectorReport builds the calibration report: observed per-detector fire
// rates from the run against the DEM-predicted marginals, with binomial
// z-scores, plus the sampled failing-shot defect sets. Only call at
// quiescence. Errors if the collector was built without a decoding graph.
func (c *Collector) DetectorReport() (*DetectorReport, error) {
	if c.graph == nil {
		return nil, errors.New("diag: collector has no decoding graph attached")
	}
	pred, err := c.graph.PredictedDetectorRates(c.sched)
	if err != nil {
		return nil, err
	}
	m := c.merged()
	r := &DetectorReport{Shots: m.shotsOK + m.shotsFail, Failures: m.failures}
	n := float64(r.Shots)
	for i := range c.dets.Dets {
		det := &c.dets.Dets[i]
		ds := DetectorStat{
			ID:        i,
			I:         det.Face.I,
			J:         det.Face.J,
			Round:     det.Round,
			Type:      det.Type.String(),
			Fired:     m.detFired[i],
			FailFired: m.detFail[i],
			Predicted: pred[i],
		}
		if n > 0 {
			ds.Observed = float64(ds.Fired) / n
			// Clamp the variance's p into [1/4n, 1−1/4n] so the residual
			// stays finite when the model predicts exactly 0 or 1.
			pe := math.Min(math.Max(ds.Predicted, 0.25/n), 1-0.25/n)
			ds.Z = (ds.Observed - ds.Predicted) / math.Sqrt(pe*(1-pe)/n)
		}
		if z := math.Abs(ds.Z); z > r.MaxAbsZ {
			r.MaxAbsZ = z
		}
		r.Detectors = append(r.Detectors, ds)
	}
	return r, nil
}

// Table renders the calibration report as a fixed-width text table in
// detector-id order (matching the DEM), with the failure samples appended.
func (r *DetectorReport) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "detector calibration: %d detectors, %d shots, max |z| = %.2f\n",
		len(r.Detectors), r.Shots, r.MaxAbsZ)
	fmt.Fprintf(&b, "%4s %5s %5s %6s %4s %10s %10s %8s %8s %10s\n",
		"id", "i", "j", "round", "type", "observed", "predicted", "z", "fired", "fail_fired")
	for _, ds := range r.Detectors {
		fmt.Fprintf(&b, "%4d %5d %5d %6d %4s %10.5f %10.5f %8.2f %8d %10d\n",
			ds.ID, ds.I, ds.J, ds.Round, ds.Type,
			ds.Observed, ds.Predicted, ds.Z, ds.Fired, ds.FailFired)
	}
	for _, f := range r.Failures {
		fmt.Fprintf(&b, "failure: shot %d defects %v\n", f.Shot, f.Defects)
	}
	return b.String()
}
