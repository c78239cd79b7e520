package decoder

import (
	"tiscc/internal/noise"
)

// compileEffects compiles the fault-effect table of the detectors and the
// logical observable over s: one backward pass (noise.CompileEffects),
// which also proves every detector and the observable deterministic.
func compileEffects(d *Detectors, s *noise.Schedule) (*noise.Effects, error) {
	checks := make([][]int32, len(d.Dets))
	for i := range d.Dets {
		checks[i] = d.Dets[i].Recs
	}
	return noise.CompileEffects(s, checks, d.Obs)
}

// PredictedDetectorRates returns, per detector, the fire probability the
// detector error model of the graph's schedule s predicts: the odd-fire
// combination (p ⊕ q = p + q − 2pq) of every mechanism whose symptom
// contains the detector, mechanisms treated as independent — exactly the
// marginal a calibrated sampler should reproduce. It reads the graph's
// retained effect table, so it runs no backward pass. The Stim-style
// calibration check compares these against observed per-shot fire rates.
func (g *Graph) PredictedDetectorRates(s *noise.Schedule) ([]float64, error) {
	rates := make([]float64, len(g.det.Dets))
	err := g.eff.EachMechanism(s, func(m noise.Mechanism) error {
		for _, di := range m.Dets {
			rates[di] = mergeP(rates[di], m.P)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rates, nil
}
