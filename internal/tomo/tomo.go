// Package tomo implements the quantum state and process tomography used to
// verify compiled operations in the logical sub-space (TISCC Sec 4,
// following Nielsen & Chuang). States are reconstructed from logical Pauli
// expectation values; single-qubit processes are reconstructed as affine
// Bloch maps from an informationally complete set of input states
// (|0⟩, |1⟩, |+⟩, |+i⟩ — the paper's verified preparation circuits).
package tomo

import (
	"fmt"
	"math"
	"math/cmplx"
)

// Bloch is a single logical qubit's Bloch vector (⟨X̄⟩, ⟨Ȳ⟩, ⟨Z̄⟩).
type Bloch [3]float64

// Canonical input Bloch vectors for process tomography.
var (
	StateZero = Bloch{0, 0, 1}
	StateOne  = Bloch{0, 0, -1}
	StatePlus = Bloch{1, 0, 0}
	StateYPos = Bloch{0, 1, 0}
	StateT    = Bloch{1 / math.Sqrt2, 1 / math.Sqrt2, 0}
)

// MaxAbsDiff returns the ∞-norm distance between two Bloch vectors.
func (b Bloch) MaxAbsDiff(o Bloch) float64 {
	m := 0.0
	for i := range b {
		if d := math.Abs(b[i] - o[i]); d > m {
			m = d
		}
	}
	return m
}

// Channel is the affine Bloch representation of a single-qubit channel:
// E(r) = M·r + T. For unitary channels T = 0 and M is the rotation matrix;
// this carries the same information as the process (χ) matrix for the
// trace-preserving case.
type Channel struct {
	M [3][3]float64
	T [3]float64
}

// FromInputs reconstructs the channel from the outputs of the four
// informationally complete inputs |0⟩, |1⟩, |+⟩ and |+i⟩.
func FromInputs(out0, out1, outPlus, outYPos Bloch) Channel {
	var ch Channel
	for i := 0; i < 3; i++ {
		ch.T[i] = (out0[i] + out1[i]) / 2
		ch.M[i][2] = (out0[i] - out1[i]) / 2
		ch.M[i][0] = outPlus[i] - ch.T[i]
		ch.M[i][1] = outYPos[i] - ch.T[i]
	}
	return ch
}

// MaxAbsDiff returns the ∞-norm distance between two channels' parameters.
func (c Channel) MaxAbsDiff(o Channel) float64 {
	m := 0.0
	for i := 0; i < 3; i++ {
		if d := math.Abs(c.T[i] - o.T[i]); d > m {
			m = d
		}
		for j := 0; j < 3; j++ {
			if d := math.Abs(c.M[i][j] - o.M[i][j]); d > m {
				m = d
			}
		}
	}
	return m
}

// String renders the affine map.
func (c Channel) String() string {
	return fmt.Sprintf("M=%v T=%v", c.M, c.T)
}

// Ideal single-qubit channels (Bloch rotations).
var (
	IdealIdentity = Channel{M: [3][3]float64{{1, 0, 0}, {0, 1, 0}, {0, 0, 1}}}
	IdealHadamard = Channel{M: [3][3]float64{{0, 0, 1}, {0, -1, 0}, {1, 0, 0}}}
	IdealPauliX   = Channel{M: [3][3]float64{{1, 0, 0}, {0, -1, 0}, {0, 0, -1}}}
	IdealPauliY   = Channel{M: [3][3]float64{{-1, 0, 0}, {0, 1, 0}, {0, 0, -1}}}
	IdealPauliZ   = Channel{M: [3][3]float64{{-1, 0, 0}, {0, -1, 0}, {0, 0, 1}}}
	IdealSGate    = Channel{M: [3][3]float64{{0, -1, 0}, {1, 0, 0}, {0, 0, 1}}}
)

// TwoQubitState is a two-logical-qubit state reconstructed from the 15
// nontrivial Pauli expectations ⟨P_a ⊗ P_b⟩ (indexed I=0, X=1, Y=2, Z=3
// with [0][0] implicitly 1).
type TwoQubitState struct {
	E [4][4]float64
}

// pauliMat returns the 2×2 matrix of the k-th Pauli (I, X, Y, Z).
func pauliMat(k int) [2][2]complex128 {
	switch k {
	case 1:
		return [2][2]complex128{{0, 1}, {1, 0}}
	case 2:
		return [2][2]complex128{{0, -1i}, {1i, 0}}
	case 3:
		return [2][2]complex128{{1, 0}, {0, -1}}
	}
	return [2][2]complex128{{1, 0}, {0, 1}}
}

// Density reconstructs the 4×4 density matrix ρ = ¼ Σ ⟨P_a⊗P_b⟩ P_a⊗P_b.
func (s TwoQubitState) Density() [4][4]complex128 {
	var rho [4][4]complex128
	e := s.E
	e[0][0] = 1
	for a := 0; a < 4; a++ {
		for b := 0; b < 4; b++ {
			pa, pb := pauliMat(a), pauliMat(b)
			for i := 0; i < 2; i++ {
				for j := 0; j < 2; j++ {
					for k := 0; k < 2; k++ {
						for l := 0; l < 2; l++ {
							rho[2*i+k][2*j+l] += complex(e[a][b]/4, 0) * pa[i][j] * pb[k][l]
						}
					}
				}
			}
		}
	}
	return rho
}

// PureFidelity returns ⟨ψ|ρ|ψ⟩ for a pure 4-vector target.
func (s TwoQubitState) PureFidelity(psi [4]complex128) float64 {
	rho := s.Density()
	var acc complex128
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			acc += cmplx.Conj(psi[i]) * rho[i][j] * psi[j]
		}
	}
	return real(acc)
}

// BellState returns (|00⟩ + (−1)^sign |11⟩)/√2.
func BellState(negative bool) [4]complex128 {
	s := complex(1/math.Sqrt2, 0)
	if negative {
		return [4]complex128{s, 0, 0, -s}
	}
	return [4]complex128{s, 0, 0, s}
}
