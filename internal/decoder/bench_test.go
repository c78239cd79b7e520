package decoder

import (
	"fmt"
	"maps"
	"slices"
	"testing"

	"tiscc/internal/frame"
	"tiscc/internal/noise"
	"tiscc/internal/orqcs"
	"tiscc/internal/pauli"
)

// BenchmarkDecode times decoding alone on memory-experiment shots (rounds
// = d, depolarizing p = 1e-3) pre-sampled by the Pauli-frame sampler, so
// neither sampling nor compilation is in the loop. The records subcase
// times DecodeOutcome on one shot's record table per op — syndrome
// evaluation plus union-find growth and the merge-label parity, the record
// oracle; the planes subcase times the production path, DecodePlanes on
// one 64-shot batch of fault firings per op — symptom XORs into detector
// words, empty-lane skipping and the same union-find core.
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
			p.Fired = slices.Clone(p.Fired)
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
			for i := range planes {
				g.DecodePlanes(&planes[i]) // size every plane's detector words
			}
			b.ReportAllocs()
			for i := 0; b.Loop(); i++ {
				g.DecodePlanes(&planes[i%len(planes)])
			}
		})
	}
}

// BenchmarkDecodedBatch times one decoded batch end to end as a decoded
// estimate runs it, per 64-shot op: the fault draws (Batch.Draw), the
// symptom XORs into detector words and union-find decoding, at the
// surgery-d5-sparse point (d=5 merge/split, depolarizing 5e-5) and the
// memory-d9-dense point (memory d=9, depolarizing 1e-3).
func BenchmarkDecodedBatch(b *testing.B) {
	surg := mustSurgery(b, 5, 1, 5, 1, pauli.Z)
	mem := mustMemory(b, 9, 9, pauli.Z)
	for _, c := range []struct {
		name string
		prog *orqcs.Program
		det  *Detectors
		p    float64
	}{
		{"surgery-d5", surg.Prog, mustSurgeryDetectors(b, surg), 5e-5},
		{"memory-d9", mem.Prog, mustDetectors(b, mem), 1e-3},
	} {
		sched := noise.Compile(noise.Depolarizing(c.p), c.prog)
		g := mustGraph(b, c.det, sched)
		sim, err := frame.New(c.prog, sched)
		if err != nil {
			b.Fatal(err)
		}
		batch := sim.NewBatch()
		b.Run(c.name, func(b *testing.B) {
			batch.Draw(0, 64, 1)
			g.DecodePlanes(batch.Planes())
			b.ReportAllocs()
			for i := 1; b.Loop(); i++ {
				batch.Draw(64*i, 64, 1)
				g.DecodePlanes(batch.Planes())
			}
		})
	}
}
