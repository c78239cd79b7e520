package decoder

import (
	"tiscc/internal/noise"
)

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
