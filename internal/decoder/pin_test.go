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
// the serialized decoding graph for four compiled experiments: the graph's
// detectors and edges, and the effect table AppendGraph appends after
// them. Any change to mechanism enumeration order, branch probabilities,
// edge merging, weight quantization or branch symptoms shows up here as a
// hash mismatch, so refactors of the DEM compiler must reproduce the
// previous output byte for byte.
func TestDEMBytesPinned(t *testing.T) {
	cases := []struct {
		name string
		det  func(t *testing.T) (*Detectors, *noise.Schedule)
		// SHA-256 of WriteDEM text, of the AppendGraph bytes before the
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
			var text strings.Builder
			if err := WriteDEM(&text, det, sched); err != nil {
				t.Fatal(err)
			}
			g := mustGraph(t, det, sched)
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
