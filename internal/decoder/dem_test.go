package decoder

import (
	"fmt"
	"strings"
	"testing"

	"tiscc/internal/noise"
	"tiscc/internal/pauli"
)

// demKey canonicalizes a mechanism's symptom for multiset comparison.
func demKey(dets []int32, obs bool) string {
	var sb strings.Builder
	for _, d := range dets {
		fmt.Fprintf(&sb, "D%d ", d)
	}
	if obs {
		sb.WriteString("L0")
	}
	return sb.String()
}

// TestDEMRoundTrip is the export/parse property test: for memory and
// surgery programs at d=3 and d=5, WriteDEM output re-parsed with ParseDEM
// must reproduce — exactly — the detector count, the per-detector
// coordinates, the observable declaration and the merged mechanism set that
// an independent forEachMechanism aggregation yields, with every edge
// weight (firing probability) surviving the text round trip.
func TestDEMRoundTrip(t *testing.T) {
	cases := []struct {
		name string
		det  func(t *testing.T) (*Detectors, *noise.Schedule)
	}{
		{"memory-d3", func(t *testing.T) (*Detectors, *noise.Schedule) {
			mem := mustMemory(t, 3, 2, pauli.Z)
			return mustDetectors(t, mem), noise.Compile(noise.Depolarizing(1e-3), mem.Prog)
		}},
		{"memory-d5", func(t *testing.T) (*Detectors, *noise.Schedule) {
			mem := mustMemory(t, 5, 2, pauli.Z)
			return mustDetectors(t, mem), noise.Compile(noise.Depolarizing(1e-3), mem.Prog)
		}},
		{"surgery-d3", func(t *testing.T) (*Detectors, *noise.Schedule) {
			s := mustSurgery(t, 3, 1, 1, 1, pauli.Z)
			return mustSurgeryDetectors(t, s), noise.Compile(noise.Depolarizing(1e-3), s.Prog)
		}},
		{"surgery-d5", func(t *testing.T) (*Detectors, *noise.Schedule) {
			s := mustSurgery(t, 5, 1, 1, 1, pauli.Z)
			return mustSurgeryDetectors(t, s), noise.Compile(noise.Depolarizing(1e-3), s.Prog)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			det, sched := tc.det(t)
			dem, err := ParseDEM(strings.NewReader(demText(t, det, sched)))
			if err != nil {
				t.Fatal(err)
			}
			if dem.NumDetectors() != len(det.Dets) {
				t.Fatalf("%d detector declarations, want %d", dem.NumDetectors(), len(det.Dets))
			}
			if dem.Observables != 1 {
				t.Fatalf("%d observable declarations, want 1", dem.Observables)
			}
			for i := range det.Dets {
				want := [4]int{det.Dets[i].Face.I, det.Dets[i].Face.J, det.Dets[i].Round, 0}
				if det.Dets[i].Type != det.basis {
					want[3] = 1
				}
				got, ok := dem.Coords[int32(i)]
				if !ok {
					t.Fatalf("detector D%d not declared", i)
				}
				if got != want {
					t.Fatalf("D%d coordinates %v, want %v", i, got, want)
				}
			}
			// Independent aggregation with the exact merge rule of WriteDEM.
			wantP := map[string]float64{}
			err = forEachMechanism(det, sched, func(m noise.Mechanism) error {
				k := demKey(m.Dets, m.Obs)
				if p, ok := wantP[k]; ok {
					wantP[k] = mergeP(p, m.P)
				} else {
					wantP[k] = m.P
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(dem.Mechanisms) != len(wantP) {
				t.Fatalf("%d parsed mechanisms, want %d", len(dem.Mechanisms), len(wantP))
			}
			for _, m := range dem.Mechanisms {
				if m.P <= 0 || m.P >= 1 {
					t.Fatalf("mechanism %v has out-of-range probability %g", m.Dets, m.P)
				}
				for i, di := range m.Dets {
					if di < 0 || int(di) >= len(det.Dets) {
						t.Fatalf("mechanism references unknown detector D%d", di)
					}
					if i > 0 && m.Dets[i-1] >= di {
						t.Fatalf("mechanism targets not strictly sorted: %v", m.Dets)
					}
				}
				want, ok := wantP[demKey(m.Dets, m.Obs)]
				if !ok {
					t.Fatalf("parsed mechanism %v (obs %v) not produced by enumeration", m.Dets, m.Obs)
				}
				// %g printing is shortest-exact for float64: the weight must
				// round-trip bit-for-bit.
				if m.P != want {
					t.Fatalf("mechanism %v probability %v, want %v", m.Dets, m.P, want)
				}
				delete(wantP, demKey(m.Dets, m.Obs))
			}
			if len(wantP) != 0 {
				t.Fatalf("%d enumerated mechanisms missing from the export", len(wantP))
			}
		})
	}
}

// TestWriteDEMSkipsZeroProbability is the regression test for error(0)
// emission: a SPAM-saturated model (PPrep = PMeas = 1) on a d=3 memory
// experiment merges preparation and measurement flips with identical
// symptoms to probability exactly 0 under the XOR merge rule. Those
// mechanisms must be dropped at write time, and the parse output must be
// unchanged relative to the nonzero mechanism set.
func TestWriteDEMSkipsZeroProbability(t *testing.T) {
	mem := mustMemory(t, 3, 1, pauli.Z)
	det := mustDetectors(t, mem)
	sched := noise.Compile(noise.Model{Name: "spam-saturated", PPrep: 1, PMeas: 1}, mem.Prog)

	// Independent aggregation with WriteDEM's merge rule, split by zero/nonzero.
	wantP := map[string]float64{}
	if err := forEachMechanism(det, sched, func(m noise.Mechanism) error {
		k := demKey(m.Dets, m.Obs)
		if p, ok := wantP[k]; ok {
			wantP[k] = mergeP(p, m.P)
		} else {
			wantP[k] = m.P
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	zeros := 0
	for k, p := range wantP {
		if p == 0 {
			zeros++
			delete(wantP, k)
		}
	}
	if zeros == 0 {
		t.Fatal("test premise broken: the saturated SPAM model produced no zero-probability merges")
	}

	text := demText(t, det, sched)
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, "error(0)") {
			t.Fatalf("WriteDEM emitted a zero-probability mechanism: %q", line)
		}
	}
	dem, err := ParseDEM(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if len(dem.Mechanisms) != len(wantP) {
		t.Fatalf("parsed %d mechanisms, want the %d nonzero ones", len(dem.Mechanisms), len(wantP))
	}
	for _, m := range dem.Mechanisms {
		want, ok := wantP[demKey(m.Dets, m.Obs)]
		if !ok {
			t.Fatalf("parsed mechanism %v (obs %v) missing from the nonzero enumeration", m.Dets, m.Obs)
		}
		if m.P != want {
			t.Fatalf("mechanism %v probability %v, want %v", m.Dets, m.P, want)
		}
	}
	// Round trip of the fixed writer is the identity on the parse output.
	dem2, err := ParseDEM(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if len(dem2.Mechanisms) != len(dem.Mechanisms) || dem2.Observables != dem.Observables ||
		dem2.NumDetectors() != dem.NumDetectors() {
		t.Fatal("parse output changed across an identical re-parse")
	}
}
