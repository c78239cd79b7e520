package decoder

import (
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"testing"

	"tiscc/internal/hardware"
	"tiscc/internal/noise"
	"tiscc/internal/pauli"
)

// TestDEMBytesPinned pins the exact bytes of the detector error model and of
// the serialized decoding graph for five compiled experiments: the graph's
// detectors and edges, and the effect table AppendGraph appends after
// them. Any change to mechanism enumeration order, branch probabilities,
// edge merging, weight quantization or branch symptoms shows up here as a
// hash mismatch, so refactors of the DEM compiler must reproduce the
// previous output byte for byte.
func TestDEMBytesPinned(t *testing.T) {
	cases := []struct {
		name string
		det  func(t *testing.T) (*Detectors, *noise.Schedule)
		// SHA-256 of Graph.WriteDEM text, of the AppendGraph bytes before the
		// effect table, and of the effect table's bytes.
		dem, grph, sym string
	}{
		{"memory-d5-Z-depol", func(t *testing.T) (*Detectors, *noise.Schedule) {
			mem := mustMemory(t, 5, 5, pauli.Z)
			return mustDetectors(t, mem), noise.Compile(noise.Depolarizing(1e-3), mem.Prog)
		},
			"cef4274ad906012e6acc062c38444777d277bcf0a9e590a4f68d59bc2fb61b96",
			"515096a69bb010fe3ad01e9749747337be66229d719a003c7d2faf944ceb2703",
			"06c172046b3128646303535ff0bbbb7e4ae8b76460ac9f8b40d78ee3d9696108"},
		{"memory-d9-Z-depol", func(t *testing.T) (*Detectors, *noise.Schedule) {
			mem := mustMemory(t, 9, 9, pauli.Z)
			return mustDetectors(t, mem), noise.Compile(noise.Depolarizing(1e-3), mem.Prog)
		},
			"1dde7ccbabfea12a755f52eee17978bbf925f836456aee9095c664135d1e8068",
			"19cdee8eb2129ba4f96a7c85b41531239f39d9d11f61b3381fcb5bb7bf3ab9de",
			"66c7afb3ca2a33d7ff3c5e5b82ec805f6fac4c30e0f3749927d32b6f2f3d4207"},
		{"memory-d3-X-table5", func(t *testing.T) (*Detectors, *noise.Schedule) {
			mem := mustMemory(t, 3, 3, pauli.X)
			return mustDetectors(t, mem), noise.Compile(noise.PaperTable5(hardware.Default()), mem.Prog)
		},
			"1a68e1046319a9e54ab97bda8df64fa0697d4922ec00d087d404892065a12d15",
			"55dd4c76fdf5cd13af203bc0a637630a299f7a9e7e81009014c32f7c45e3fa02",
			"78d08a140dffbf4a6d521c2020342a3384caa579882505554ff0bde7c08ca1bb"},
		{"surgery-d3-Z-depol", func(t *testing.T) (*Detectors, *noise.Schedule) {
			s := mustSurgery(t, 3, 1, 1, 1, pauli.Z)
			return mustSurgeryDetectors(t, s), noise.Compile(noise.Depolarizing(1e-3), s.Prog)
		},
			"c8c27a3309eaef78000f90055ab1f4aad920e9acf809237a370a2c29468a6f55",
			"b6dd27f380278f21abbe47866244250cbb05e083f5e3344aac74910c21bda500",
			"de887b404743f67762f107eefd26622288010379b1ac1ca8b19be9d9e8342f9e"},
		{"surgery-d5-Z-table5", func(t *testing.T) (*Detectors, *noise.Schedule) {
			s := mustSurgery(t, 5, 1, 1, 1, pauli.Z)
			return mustSurgeryDetectors(t, s), noise.Compile(noise.PaperTable5(hardware.Default()), s.Prog)
		},
			"0cebc1b28e12d4d868e49f22a1e5834449367e1b9879dd7f5a7b7a04e4af2c1a",
			"1b6091b03cb79885a4ce835fb8dc867b5b9c6af71c9380e3e220499199f32bc4",
			"d7ab673aa6a922ee0cc1e06016120110a86ba60e68af91881ffbf3ab17246b16"},
	}
	sum := func(b []byte) string {
		h := sha256.Sum256(b)
		return hex.EncodeToString(h[:])
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			det, sched := tc.det(t)
			g := mustGraph(t, det, sched)
			var text strings.Builder
			if err := g.WriteDEM(&text, sched); err != nil {
				t.Fatal(err)
			}
			if got := sum([]byte(text.String())); got != tc.dem {
				t.Errorf("WriteDEM sha256 %s, pinned %s", got, tc.dem)
			}
			all, table := AppendGraph(nil, g), noise.AppendEffects(nil, &g.eff)
			if got := sum(all[:len(all)-len(table)]); got != tc.grph {
				t.Errorf("AppendGraph sha256 (detectors and edges) %s, pinned %s", got, tc.grph)
			}
			if got := sum(table); got != tc.sym {
				t.Errorf("effect table sha256 %s, pinned %s", got, tc.sym)
			}
		})
	}
}

// TestGraphDEMMatchesWriteDEM checks that a re-weighed graph writes the same
// DEM as a fresh CompileGraph's: Plans re-weighs a plan made on the same
// schedule or at another error rate, as a decoded run's cached plans do,
// on the shapes TestDEMBytesPinned pins.
func TestGraphDEMMatchesWriteDEM(t *testing.T) {
	mem := mustMemory(t, 5, 5, pauli.Z)
	memDet := mustDetectors(t, mem)
	surg := mustSurgery(t, 3, 1, 1, 1, pauli.Z)
	surgDet := mustSurgeryDetectors(t, surg)
	for _, tc := range []struct {
		name    string
		det     *Detectors
		planned *noise.Schedule
		s       *noise.Schedule
	}{
		{"memory-d5-depol", memDet, noise.Compile(noise.Depolarizing(1e-3), mem.Prog), noise.Compile(noise.Depolarizing(1e-3), mem.Prog)},
		{"memory-d5-reweighed", memDet, noise.Compile(noise.Depolarizing(3e-3), mem.Prog), noise.Compile(noise.Depolarizing(1e-3), mem.Prog)},
		{"surgery-d3-table5", surgDet, noise.Compile(noise.PaperTable5(hardware.Default()), surg.Prog), noise.Compile(noise.PaperTable5(hardware.Default()), surg.Prog)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ps := NewPlans(tc.det)
			if _, err := ps.Graph(tc.planned); err != nil {
				t.Fatal(err)
			}
			g, err := ps.Graph(tc.s)
			if err != nil {
				t.Fatal(err)
			}
			if len(ps.plans()) != 1 {
				t.Fatalf("%d plans kept, want the re-weighed one only", len(ps.plans()))
			}
			var got strings.Builder
			if err := g.WriteDEM(&got, tc.s); err != nil {
				t.Fatal(err)
			}
			if want := demText(t, tc.det, tc.s); got.String() != want {
				t.Fatalf("a re-weighed graph's DEM differs from a fresh graph's (%d vs %d bytes)", got.Len(), len(want))
			}
			// A schedule the graph was not compiled against is refused.
			other := noise.Compile(noise.Depolarizing(1e-3), mustMemory(t, 3, 3, pauli.Z).Prog)
			if err := g.WriteDEM(&got, other); err == nil {
				t.Fatal("Graph.WriteDEM accepted a foreign schedule")
			}
		})
	}
}
