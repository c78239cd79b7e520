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
// the serialized decoding graph for four compiled experiments. Any change to
// mechanism enumeration order, branch probabilities, edge merging or weight
// quantization shows up here as a hash mismatch, so refactors of the DEM
// compiler must reproduce the previous output byte for byte.
func TestDEMBytesPinned(t *testing.T) {
	cases := []struct {
		name      string
		det       func(t *testing.T) (*Detectors, *noise.Schedule)
		dem, grph string // SHA-256 of WriteDEM text / AppendGraph bytes
	}{
		{"memory-d5-Z-depol", func(t *testing.T) (*Detectors, *noise.Schedule) {
			mem := mustMemory(t, 5, 5, pauli.Z)
			return mustDetectors(t, mem), noise.Compile(noise.Depolarizing(1e-3), mem.Prog)
		},
			"cef4274ad906012e6acc062c38444777d277bcf0a9e590a4f68d59bc2fb61b96",
			"515096a69bb010fe3ad01e9749747337be66229d719a003c7d2faf944ceb2703"},
		{"memory-d3-X-table5", func(t *testing.T) (*Detectors, *noise.Schedule) {
			mem := mustMemory(t, 3, 3, pauli.X)
			return mustDetectors(t, mem), noise.Compile(noise.PaperTable5(hardware.Default()), mem.Prog)
		},
			"1a68e1046319a9e54ab97bda8df64fa0697d4922ec00d087d404892065a12d15",
			"55dd4c76fdf5cd13af203bc0a637630a299f7a9e7e81009014c32f7c45e3fa02"},
		{"surgery-d3-Z-depol", func(t *testing.T) (*Detectors, *noise.Schedule) {
			s := mustSurgery(t, 3, 1, 1, 1, pauli.Z)
			return mustSurgeryDetectors(t, s), noise.Compile(noise.Depolarizing(1e-3), s.Prog)
		},
			"c8c27a3309eaef78000f90055ab1f4aad920e9acf809237a370a2c29468a6f55",
			"b6dd27f380278f21abbe47866244250cbb05e083f5e3344aac74910c21bda500"},
		{"surgery-d5-Z-table5", func(t *testing.T) (*Detectors, *noise.Schedule) {
			s := mustSurgery(t, 5, 1, 1, 1, pauli.Z)
			return mustSurgeryDetectors(t, s), noise.Compile(noise.PaperTable5(hardware.Default()), s.Prog)
		},
			"0cebc1b28e12d4d868e49f22a1e5834449367e1b9879dd7f5a7b7a04e4af2c1a",
			"1b6091b03cb79885a4ce835fb8dc867b5b9c6af71c9380e3e220499199f32bc4"},
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
			if got := sum(AppendGraph(nil, g)); got != tc.grph {
				t.Errorf("AppendGraph sha256 %s, pinned %s", got, tc.grph)
			}
		})
	}
}
