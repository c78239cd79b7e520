package verify

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"testing"

	"tiscc/internal/circuit"
	"tiscc/internal/hardware"
	"tiscc/internal/noise"
	"tiscc/internal/orqcs"
	"tiscc/internal/pauli"
)

// TestSetupArtifactsPinned pins the bytes of every set-up artifact of three
// experiments: the hardware circuit's text, the lowered program's
// instruction, gap and folded-preparation tables, the noiseless reference's
// events and collapse rows, and the noise schedule's fault table (per-site
// faults and classes plus the slot offsets). Faster event ordering, table
// sizing and deterministic-measurement code must reproduce these exactly:
// a hash change means an artifact changed, not that the pin is stale. The
// collapse rows are the inverse tableau's choice among the stabilizers that
// anticommute with the measured Z (Inverse.CollapseRow); any of them is a
// valid row for the frame sampler, so only that choice moves the reference
// pin, never a record.
func TestSetupArtifactsPinned(t *testing.T) {
	cases := []struct {
		name  string
		model noise.Model
		build func(built func(*circuit.Circuit)) (*orqcs.Program, error)
		// SHA-256 of the circuit text, program tables, reference trace
		// and fault table.
		circ, prog, ref, sched string
	}{
		{"memory-d13-Z-depol", noise.Depolarizing(1e-3),
			func(built func(*circuit.Circuit)) (*orqcs.Program, error) {
				m, err := memoryExperiment(13, 13, pauli.Z, built)
				if err != nil {
					return nil, err
				}
				return m.Prog, nil
			},
			"f827b6ab8259e14d5672008ffdc5816e36edbc796342373bcc4841e07879229f",
			"d6a5e069179f8abcedc6f2cde45f795c803bac58ce72e469d8b57032ed1560e6",
			"1230c46d08d8a6c94d5f1619a3c04fb79088d4eb01b47d774fc5fd26d21be0ae",
			"0eb2a3e695380ad8afb652d411a94d4f54ae14dc80301396e11065d9c2ad48ba"},
		{"memory-d9-X-table5", noise.PaperTable5(hardware.Default()),
			func(built func(*circuit.Circuit)) (*orqcs.Program, error) {
				m, err := memoryExperiment(9, 9, pauli.X, built)
				if err != nil {
					return nil, err
				}
				return m.Prog, nil
			},
			"a203135942a6e2372ffcf524d4c5585bfebed5463e7c4f1405d3a04a040432d6",
			"5b6081603130ec6c832c631188bd01fbfc4628bd56298064f290fbff065088ff",
			"ecdbb222fd6b5262a89f1607aaac57e7a4ee17a6e8f4e2cde594c47dc70d85d7",
			"62f69915e8a6e316ec948ef9510e2aec70493d18921d799a3c808c4d915afae6"},
		{"surgery-d5-Z-table5", noise.PaperTable5(hardware.Default()),
			func(built func(*circuit.Circuit)) (*orqcs.Program, error) {
				s, err := surgeryExperiment(5, 1, 5, 1, pauli.Z, built)
				if err != nil {
					return nil, err
				}
				return s.Prog, nil
			},
			"067f0f7558f50147f694fa1e6424d46ab6abd6ff590bd3421385c8e5af6bee96",
			"e5b938ad151753cc6ce8cc6a8172354f1cd79449be9c8830ead017b956c0678e",
			"edb2cc730d0b37073a4cd291632a53470b4cf7eb983bdf18236edb769dde4e28",
			"93c16e8fb3c9acade165cf2dd1d30e37845fcf569f6f2df811073ec4c3d37ccb"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var circ *circuit.Circuit
			prog, err := tc.build(func(c *circuit.Circuit) { circ = c })
			if err != nil {
				t.Fatal(err)
			}
			ref, err := prog.Reference()
			if err != nil {
				t.Fatal(err)
			}
			sched := noise.Compile(tc.model, prog)

			h := sha256.New()
			h.Write([]byte(circ.String()))
			check(t, "circuit", h, tc.circ)

			h = sha256.New()
			write(h, prog.Instructions())
			for i := range prog.NumInstrs() {
				write(h, prog.Gap(i))
			}
			write(h, prog.FoldedPreps())
			check(t, "program", h, tc.prog)

			h = sha256.New()
			write(h, ref.Events)
			write(h, ref.Collapse)
			check(t, "reference", h, tc.ref)

			h = sha256.New()
			for k := range sched.NumFaultSites() {
				write(h, sched.SiteFault(k))
				write(h, sched.SiteClass(k))
			}
			for slot := range sched.NumSlots() {
				write(h, sched.SlotEnd(slot))
			}
			check(t, "fault table", h, tc.sched)
		})
	}
}

// write appends v's fixed-size little-endian encoding to h.
func write(h hash.Hash, v any) {
	if err := binary.Write(h, binary.LittleEndian, v); err != nil {
		panic(err)
	}
}

func check(t *testing.T, what string, h hash.Hash, want string) {
	t.Helper()
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("%s sha256 %s, pinned %s", what, got, want)
	}
}
