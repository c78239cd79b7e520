package tomo

import (
	"math"
	"math/cmplx"
	"testing"
)

func TestChannelFromInputsIdentity(t *testing.T) {
	ch := FromInputs(StateZero, StateOne, StatePlus, StateYPos)
	if ch.MaxAbsDiff(IdealIdentity) != 0 {
		t.Fatalf("identity reconstruction failed: %v", ch)
	}
}

func TestChannelFromInputsHadamard(t *testing.T) {
	h := func(b Bloch) Bloch { return Bloch{b[2], -b[1], b[0]} }
	ch := FromInputs(h(StateZero), h(StateOne), h(StatePlus), h(StateYPos))
	if ch.MaxAbsDiff(IdealHadamard) != 0 {
		t.Fatalf("hadamard reconstruction failed: %v", ch)
	}
}

// TestChannelApply maps inputs through the ideal channels' affine form
// M·r + T.
func TestChannelApply(t *testing.T) {
	apply := func(c Channel, r Bloch) Bloch {
		var out Bloch
		for i := range out {
			out[i] = c.T[i] + c.M[i][0]*r[0] + c.M[i][1]*r[1] + c.M[i][2]*r[2]
		}
		return out
	}
	if got := apply(IdealHadamard, StateZero); got != StatePlus {
		t.Fatalf("H|0⟩ bloch = %v", got)
	}
	if got := apply(IdealPauliX, StateZero); got != StateOne {
		t.Fatalf("X|0⟩ bloch = %v", got)
	}
	if got := apply(IdealSGate, StatePlus); got != StateYPos {
		t.Fatalf("S|+⟩ bloch = %v", got)
	}
}

func TestIdealChannelsAreOrthogonal(t *testing.T) {
	// Rotation matrices: M·Mᵀ = I.
	for _, ch := range []Channel{IdealIdentity, IdealHadamard, IdealPauliX, IdealPauliY, IdealPauliZ, IdealSGate} {
		for i := 0; i < 3; i++ {
			for j := 0; j < 3; j++ {
				var dot float64
				for k := 0; k < 3; k++ {
					dot += ch.M[i][k] * ch.M[j][k]
				}
				want := 0.0
				if i == j {
					want = 1
				}
				if math.Abs(dot-want) > 1e-12 {
					t.Fatalf("M·Mᵀ[%d][%d] = %v", i, j, dot)
				}
			}
		}
	}
}

func TestTwoQubitBellReconstruction(t *testing.T) {
	// The Bell state (|00⟩+|11⟩)/√2 has ⟨XX⟩ = ⟨ZZ⟩ = 1, ⟨YY⟩ = −1.
	var st TwoQubitState
	st.E[1][1] = 1
	st.E[2][2] = -1
	st.E[3][3] = 1
	if f := st.PureFidelity(BellState(false)); math.Abs(f-1) > 1e-12 {
		t.Fatalf("Bell fidelity = %v", f)
	}
	if f := st.PureFidelity(BellState(true)); math.Abs(f) > 1e-12 {
		t.Fatalf("orthogonal Bell fidelity = %v", f)
	}
}

func TestTwoQubitDensityTrace(t *testing.T) {
	var st TwoQubitState
	st.E[3][0] = 1 // ⟨ZI⟩ = 1
	st.E[0][3] = 1
	st.E[3][3] = 1 // |00⟩
	rho := st.Density()
	var tr complex128
	for i := 0; i < 4; i++ {
		tr += rho[i][i]
	}
	if cmplx.Abs(tr-1) > 1e-12 {
		t.Fatalf("trace = %v", tr)
	}
	if cmplx.Abs(rho[0][0]-1) > 1e-12 {
		t.Fatalf("|00⟩ population = %v", rho[0][0])
	}
}

func TestMaxAbsDiff(t *testing.T) {
	a := Bloch{1, 0, 0}
	b := Bloch{0, 0, 0.25}
	if d := a.MaxAbsDiff(b); d != 1 {
		t.Fatalf("diff = %v", d)
	}
}
