package decoder

import (
	"fmt"
	"maps"
	"slices"
	"testing"

	"tiscc/internal/frame"
	"tiscc/internal/noise"
	"tiscc/internal/pauli"
)

// BenchmarkDecode times decoding alone on memory-experiment shots (rounds
// = d, depolarizing p = 1e-3) pre-sampled by the Pauli-frame sampler, so
// neither sampling nor compilation is in the loop. The records subcase
// times DecodeOutcome on one shot's record table per op — syndrome
// evaluation plus union-find growth and peeling; the planes subcase times
// DecodePlanes on one 64-shot batch per op — detector words, empty-lane
// skipping and the same union-find core.
func BenchmarkDecode(b *testing.B) {
	for _, d := range []int{5, 9} {
		mem := mustMemory(b, d, d, pauli.Z)
		sched := noise.Compile(noise.Depolarizing(1e-3), mem.Prog)
		g := mustGraph(b, mustDetectors(b, mem), sched)
		sim, err := frame.New(mem.Prog, sched)
		if err != nil {
			b.Fatal(err)
		}
		batch := sim.NewBatch()
		var shots []map[int32]bool
		var planes []noise.Planes
		for first := 0; first < 256; first += 64 {
			batch.Run(first, 64, 1)
			p := *batch.Planes()
			p.Words = slices.Clone(p.Words)
			planes = append(planes, p)
			for lane := range 64 {
				shots = append(shots, maps.Clone(batch.Records(lane)))
			}
		}
		b.Run(fmt.Sprintf("d=%d", d), func(b *testing.B) {
			g.DecodeOutcome(shots[0]) // warm the scratch pool
			b.ReportAllocs()
			for i := 0; b.Loop(); i++ {
				g.DecodeOutcome(shots[i%len(shots)])
			}
		})
		b.Run(fmt.Sprintf("DecodePlanes/d=%d", d), func(b *testing.B) {
			g.DecodePlanes(&planes[0])
			b.ReportAllocs()
			for i := 0; b.Loop(); i++ {
				g.DecodePlanes(&planes[i%len(planes)])
			}
		})
	}
}
