package decoder

import (
	"fmt"
	"sync/atomic"
	"testing"

	"tiscc/internal/frame"
	"tiscc/internal/hardware"
	"tiscc/internal/noise"
	"tiscc/internal/orqcs"
	"tiscc/internal/pauli"
)

// TestDEMMatchesSampler checks the effect table against the sampler
// exactly: for every shot, XORing the effect-table entries of the branches
// its fault replay fires must reproduce, bit for bit, the detectors the
// frame sampler's record plane fires on that lane and whether the
// observable differs from its noiseless reference. It covers memory and
// surgery experiments under a dense uniform model and the paper's Table 5
// model, sampled at one and two workers.
func TestDEMMatchesSampler(t *testing.T) {
	const shots, seed = 512, 11
	type tcase struct {
		name string
		prog *orqcs.Program
		det  *Detectors
	}
	var cases []tcase
	for _, d := range []int{3, 5} {
		mem := mustMemory(t, d, d, pauli.Z)
		cases = append(cases, tcase{fmt.Sprintf("memory-d%d", d), mem.Prog, mustDetectors(t, mem)})
	}
	s := mustSurgery(t, 3, 1, 3, 1, pauli.Z)
	cases = append(cases, tcase{"surgery-d3", s.Prog, mustSurgeryDetectors(t, s)})
	models := []noise.Model{noise.Depolarizing(1e-2), noise.PaperTable5(hardware.Default())}
	for _, c := range cases {
		for _, m := range models {
			sched := noise.Compile(m, c.prog)
			tab, err := compileEffects(c.det, sched)
			if err != nil {
				t.Fatal(err)
			}
			// siteBase[k] is the branch id of site k's branch 0: sites are
			// numbered in slot order, as branch ids are.
			siteBase := make([]int32, sched.NumFaultSites()+1)
			for k := range sched.NumFaultSites() {
				f := sched.SiteFault(k)
				siteBase[k+1] = siteBase[k] + int32(f.NumBranches())
			}
			if n := tab.base[len(tab.base)-1]; n != siteBase[len(siteBase)-1] {
				t.Fatalf("%s/%s: effect table numbers %d branches, the fault table %d", c.name, m.Name, n, siteBase[len(siteBase)-1])
			}
			sim, err := frame.New(c.prog, sched)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 2} {
				t.Run(fmt.Sprintf("%s/%s/workers=%d", c.name, m.Name, workers), func(t *testing.T) {
					var fires, obsFlips atomic.Int64
					err := sim.SamplePlanes(shots, seed, workers, func(p *noise.Planes) error {
						fired := make([]uint64, c.det.NumDetectors())
						c.det.Fire(p, fired)
						obsW := c.det.observable().EvalWords(p.Words)
						if c.det.ObsRef {
							obsW = ^obsW
						}
						want := make([]bool, c.det.NumDetectors())
						var faults []noise.FiredFault
						var dets []int32
						nf, no := 0, 0
						for lane := range p.N {
							clear(want)
							wantObs := false
							faults = sched.FiredFaults(orqcs.ShotSeed(seed, p.First+lane), faults[:0])
							for _, f := range faults {
								var obs bool
								dets, obs = tab.effect(siteBase[f.Site]+f.Branch, dets[:0])
								for _, di := range dets {
									want[di] = !want[di]
								}
								wantObs = wantObs != obs
							}
							for di, w := range fired {
								if got := w>>uint(lane)&1 == 1; got != want[di] {
									return fmt.Errorf("shot %d detector %d: sampler fires %v, effect table %v", p.First+lane, di, got, want[di])
								}
								if want[di] {
									nf++
								}
							}
							if got := obsW>>uint(lane)&1 == 1; got != wantObs {
								return fmt.Errorf("shot %d: sampler observable flip %v, effect table %v", p.First+lane, got, wantObs)
							}
							if wantObs {
								no++
							}
						}
						fires.Add(int64(nf))
						obsFlips.Add(int64(no))
						return nil
					})
					if err != nil {
						t.Fatal(err)
					}
					if fires.Load() == 0 || obsFlips.Load() == 0 {
						t.Fatalf("%d detector fires, %d observable flips: the identity was never exercised", fires.Load(), obsFlips.Load())
					}
				})
			}
		}
	}
}
