package decoder

import (
	"fmt"
	"testing"

	"tiscc/internal/hardware"
	"tiscc/internal/noise"
	"tiscc/internal/pauli"
)

// TestGraphDistance is the circuit-distance certificate: the compiled
// decoding graph of a distance-d memory experiment (rounds = d) and of a
// distance-d merge/split cycle (merge rounds = d) admits no undetectable
// logical error built from fewer than d graphlike mechanisms, under both the
// uniform depolarizing model and the paper's Table 5 model.
func TestGraphDistance(t *testing.T) {
	models := []noise.Model{noise.Depolarizing(1e-3), noise.PaperTable5(hardware.Default())}
	for _, d := range []int{3, 5, 7, 9} {
		mem := mustMemory(t, d, d, pauli.Z)
		det := mustDetectors(t, mem)
		for _, m := range models {
			t.Run(fmt.Sprintf("memory-d%d-%s", d, m.Name), func(t *testing.T) {
				g := mustGraph(t, det, noise.Compile(m, mem.Prog))
				if got := g.Distance(); got != d {
					t.Errorf("distance %d, want %d (%d edges)", got, d, len(g.edges))
				}
			})
		}
	}
	for _, d := range []int{3, 5} {
		s := mustSurgery(t, d, 1, d, 1, pauli.Z)
		det := mustSurgeryDetectors(t, s)
		for _, m := range models {
			t.Run(fmt.Sprintf("surgery-d%d-%s", d, m.Name), func(t *testing.T) {
				g := mustGraph(t, det, noise.Compile(m, s.Prog))
				if got := g.Distance(); got != d {
					t.Errorf("distance %d, want %d (%d edges)", got, d, len(g.edges))
				}
			})
		}
	}
}

// TestGraphDistanceEdgeCases pins the certificate on hand-built graphs: an
// edgeless graph has no logical error (−1), a single observable-flipping
// boundary edge is distance 1, and an odd loop that never touches the
// boundary is found too.
func TestGraphDistanceEdgeCases(t *testing.T) {
	build := func(nDets int, edges []Edge) *Graph {
		g := &Graph{det: &Detectors{Dets: make([]Detector, nDets)}, boundary: int32(nDets)}
		for i := range edges {
			edges[i].Len = 2
		}
		g.finish(edges)
		return g
	}
	if got := build(2, nil).Distance(); got != -1 {
		t.Errorf("edgeless graph: distance %d, want -1", got)
	}
	if got := build(1, []Edge{{U: 0, V: 1, Obs: true}, {U: 0, V: 1}}).Distance(); got != 2 {
		t.Errorf("parallel boundary edges of opposite parity: distance %d, want 2", got)
	}
	// A chain boundary–0–1–2–boundary with the observable on one link (4
	// edges) and a triangle 0–1–2 off the boundary whose links XOR to odd
	// parity (3 edges).
	loop := []Edge{
		{U: 0, V: 3}, {U: 0, V: 1, Obs: true}, {U: 1, V: 2}, {U: 2, V: 3},
		{U: 0, V: 2},
	}
	if got := build(3, loop).Distance(); got != 3 {
		t.Errorf("boundary-free odd loop: distance %d, want 3", got)
	}
}
