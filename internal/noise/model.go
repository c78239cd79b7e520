// Package noise implements the stochastic Pauli error model of the
// verification simulator: circuit-level depolarizing noise in the
// conventions of Stim-style stabilizer samplers, specialized to the
// trapped-ion instruction stream of this compiler.
//
// A Model assigns error probabilities to gate classes (one-qubit rotations,
// the two-qubit ZZ gate, preparation and measurement) plus two
// transport-derived channels unique to the QCCD architecture: idle
// dephasing, whose per-instruction probability is computed from the
// schedule gaps recorded at lowering time (p_Z = (1 − e^{−t_idle/T2})/2),
// and a per-transport-step depolarizing for motional heating during Move
// events. Compile flattens a Model against a lowered orqcs.Program into a
// fault Schedule — a per-instruction list of potential error locations with
// precomputed probabilities — so that the per-shot loop only reads one
// uniform variate per location (the draw kernels, see Schedule.FiredBatch) and
// applies fired faults as Pauli frame updates, with zero allocations per
// shot.
package noise

import (
	"fmt"

	"tiscc/internal/hardware"
)

// Model is a circuit-level stochastic Pauli error model keyed by gate class.
// All probabilities are per-operation; zero disables the channel.
type Model struct {
	// Name labels the model in reports (presets fill it in).
	Name string

	// P1 is the depolarizing probability after each one-qubit X/Y-bus
	// rotation (X_{π/2}, X_{±π/4}, Y_{π/2}, Y_{±π/4}).
	P1 float64
	// P1Z is the depolarizing probability after each Z-bus rotation
	// (Z_{π/2}, Z_{±π/4}, Z_{±π/8}); near-virtual on trapped-ion hardware.
	P1Z float64
	// P2 is the two-qubit depolarizing probability after each ZZ gate
	// (uniform over the 15 non-identity two-qubit Paulis).
	P2 float64
	// PPrep is the probability of an X flip after each Prepare_Z.
	PPrep float64
	// PMeas is the probability of an X flip immediately before each
	// Measure_Z, flipping the recorded outcome (and the post-measurement
	// state consistently with the flipped record).
	PMeas float64
	// PMove is the depolarizing probability per transport step (Move event,
	// junction hops included), modeling motional heating during shuttling.
	PMove float64
	// T2 is the idle dephasing time in nanoseconds: a qubit resting for t ns
	// between operations suffers a Z flip with probability
	// (1 − exp(−t/T2))/2. Zero disables idle dephasing.
	T2 float64
}

// Ideal returns the noiseless model: compiling it yields an empty fault
// schedule, so noisy runners degenerate to the plain simulation path.
func Ideal() Model { return Model{Name: "ideal"} }

// Depolarizing returns the uniform circuit-level depolarizing model: every
// gate class (including preparation and measurement flips) errs with the
// same probability p, with no idle or transport noise. This is the standard
// single-parameter model of surface-code threshold studies.
func Depolarizing(p float64) Model {
	return Model{
		Name:  fmt.Sprintf("depolarizing(%g)", p),
		P1:    p,
		P1Z:   p,
		P2:    p,
		PPrep: p,
		PMeas: p,
	}
}

// PaperTable5 returns a trapped-ion model matched to the paper's Table 5
// timing parameters: literature-typical QCCD error rates for the gate
// classes, transport heating per shuttling step, and idle dephasing driven
// by the hardware model's T2 and the compiled schedule's idle windows.
func PaperTable5(hp hardware.Params) Model {
	return Model{
		Name:  "table5",
		P1:    1e-4, // one-qubit Raman/microwave gate infidelity
		P1Z:   1e-5, // Z rotations are nearly virtual
		P2:    2e-3, // two-qubit gate infidelity incl. split/merge/cool
		PPrep: 2e-3, // SPAM: state preparation
		PMeas: 3e-3, // SPAM: readout
		PMove: 1e-5, // motional heating per transport step
		T2:    float64(hp.T2),
	}
}

// Validate checks that every probability lies in [0, 1] and T2 is
// non-negative. NaN fails both: Compile would silently drop every fault of
// a NaN channel.
func (m Model) Validate() error {
	for _, c := range []struct {
		name string
		p    float64
	}{
		{"P1", m.P1}, {"P1Z", m.P1Z}, {"P2", m.P2},
		{"PPrep", m.PPrep}, {"PMeas", m.PMeas}, {"PMove", m.PMove},
	} {
		if !(c.p >= 0 && c.p <= 1) {
			return fmt.Errorf("noise: %s = %v outside [0, 1]", c.name, c.p)
		}
	}
	if !(m.T2 >= 0) {
		return fmt.Errorf("noise: T2 = %v outside [0, ∞)", m.T2)
	}
	return nil
}
