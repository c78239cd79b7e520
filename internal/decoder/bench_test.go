package decoder

import (
	"fmt"
	"maps"
	"testing"

	"tiscc/internal/frame"
	"tiscc/internal/noise"
	"tiscc/internal/pauli"
)

// BenchmarkDecode times DecodeOutcome alone — syndrome evaluation plus
// union-find growth and peeling — on memory-experiment records (rounds = d,
// depolarizing p = 1e-3) pre-sampled by the Pauli-frame sampler, so neither
// sampling nor compilation is in the loop. One op decodes one shot.
func BenchmarkDecode(b *testing.B) {
	for _, d := range []int{5, 9} {
		b.Run(fmt.Sprintf("d=%d", d), func(b *testing.B) {
			mem := mustMemory(b, d, d, pauli.Z)
			sched := noise.Compile(noise.Depolarizing(1e-3), mem.Prog)
			g := mustGraph(b, mustDetectors(b, mem), sched)
			sim, err := frame.New(mem.Prog, sched)
			if err != nil {
				b.Fatal(err)
			}
			shots := make([]map[int32]bool, 256)
			err = sim.SampleRecords(len(shots), 1, 1, func(i int, recs map[int32]bool) error {
				shots[i] = maps.Clone(recs)
				return nil
			})
			if err != nil {
				b.Fatal(err)
			}
			g.DecodeOutcome(shots[0]) // warm the scratch pool
			b.ReportAllocs()
			for i := 0; b.Loop(); i++ {
				g.DecodeOutcome(shots[i%len(shots)])
			}
		})
	}
}
