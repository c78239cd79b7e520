package noise

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"testing"

	"tiscc/internal/cpuid"
	"tiscc/internal/hardware"
	"tiscc/internal/orqcs"
)

// referenceFired is the plain one-stream draw loop the kernel must
// reproduce bit for bit: draw k is SplitMix64 output k of the stream in
// state seed ^ noiseSalt, its top 53 bits v fire site k when v < P·2⁵³ as
// float64s, and v/2⁵³ picks the branch.
func referenceFired(s *Schedule, seed int64) []FiredFault {
	var out []FiredFault
	st := uint64(seed) ^ noiseSalt
	for k := range s.faults {
		f := &s.faults[k]
		v := float64(orqcs.SplitMix64(st) >> 11)
		st += orqcs.SplitMix64Gamma
		if v < f.P*(1<<53) {
			out = append(out, FiredFault{Site: int32(k), Branch: int32(branch(v/(1<<53), f.P, f.NumBranches()))})
		}
	}
	return out
}

// drawKernel is one FiredBatch implementation under test.
type drawKernel struct {
	name string
	run  func(s *Schedule, seeds, buf []uint64) []uint64
	skip string // why this host cannot run it; empty when it can
}

// drawKernels lists both FiredBatch paths. The AVX-512 one carries a skip
// reason on hosts the init-time CPU probe turned it off for.
func drawKernels() []drawKernel {
	asm := drawKernel{name: "avx512", run: (*Schedule).firedAVX512}
	if !cpuid.AVX512 {
		asm.skip = fmt.Sprintf("the %s host lacks AVX-512F+DQ with OS-saved ZMM state: asm path not exercised", runtime.GOARCH)
	}
	return []drawKernel{asm, {name: "portable", run: (*Schedule).firedPortable}}
}

// eachKernel runs f as one subtest per draw kernel, skipping (and logging
// why) the kernels this host cannot run.
func eachKernel(t *testing.T, f func(t *testing.T, k drawKernel)) {
	for _, k := range drawKernels() {
		t.Run(k.name, func(t *testing.T) {
			if k.skip != "" {
				t.Skip(k.skip)
			}
			f(t, k)
		})
	}
}

// laneLists splits a batch's packed words into per-lane FiredFaults lists,
// keeping their order, and checks FiredBatch's order contract on the way:
// the words ascend strictly, by site and by lane within a site.
func laneLists(t *testing.T, words []uint64, lanes int) [][]FiredFault {
	t.Helper()
	out := make([][]FiredFault, lanes)
	for i, w := range words {
		lane := int(FiredLane(w))
		if lane >= lanes {
			t.Fatalf("word %#x names lane %d of a %d-lane batch", w, lane, lanes)
		}
		if i > 0 && words[i-1] >= w {
			t.Fatalf("words out of order: %#x then %#x", words[i-1], w)
		}
		out[lane] = append(out[lane], FiredFault{Site: int32(FiredSite(w)), Branch: int32(FiredBranch(w))})
	}
	return out
}

// checkAgainstReference runs seeds through one draw kernel and requires
// every lane's list to equal referenceFired's. The buffer it appends to
// starts with a word above any firing, which must stay where it is.
func checkAgainstReference(t *testing.T, k drawKernel, s *Schedule, seeds []int64, ref [][]FiredFault) {
	t.Helper()
	us := make([]uint64, len(seeds))
	for i, sd := range seeds {
		us[i] = uint64(sd)
	}
	words := k.run(s, us, []uint64{math.MaxUint64})
	if words[0] != math.MaxUint64 {
		t.Fatalf("%d lanes: the kernel moved the word already in buf", len(seeds))
	}
	got := laneLists(t, words[1:], len(seeds))
	for i, sd := range seeds {
		if !slices.Equal(got[i], ref[i]) {
			t.Fatalf("%d lanes, lane %d (seed %#x): kernel fired %v, reference %v", len(seeds), i, uint64(sd), got[i], ref[i])
		}
	}
}

// checkOneLane requires FiredFaults, the one-lane loop, to fire exactly
// the reference list of every seed.
func checkOneLane(t *testing.T, s *Schedule, seeds []int64, ref [][]FiredFault) {
	t.Helper()
	for i, sd := range seeds {
		if one := s.FiredFaults(sd, nil); !slices.Equal(one, ref[i]) {
			t.Fatalf("seed %#x: FiredFaults %v, reference %v", uint64(sd), one, ref[i])
		}
	}
}

// TestKernelMatchesReference is the draw kernels' exactness oracle on
// compiled schedules: the one-lane loop, and both FiredBatch paths at every
// lane count 1..64 (partial vectors and padded groups included), for every
// model, PaperTable5's spread of idle probabilities among them.
func TestKernelMatchesReference(t *testing.T) {
	prog := memoryProgram(t, 3, 3)
	models := []Model{
		Depolarizing(1e-4), Depolarizing(1e-3), Depolarizing(0.3), Depolarizing(1),
		PaperTable5(hardware.Default()),
	}
	seeds := make([]int64, 64)
	for i := range seeds {
		seeds[i] = orqcs.ShotSeed(7, i)
	}
	for _, m := range models {
		t.Run(fmt.Sprintf("%s/%g", m.Name, m.P2), func(t *testing.T) {
			s := Compile(m, prog)
			ref := make([][]FiredFault, len(seeds))
			fired := 0
			for i, sd := range seeds {
				ref[i] = referenceFired(s, sd)
				fired += len(ref[i])
			}
			if m.P2 >= 0.3 && fired == 0 {
				t.Fatal("reference fired nothing at p ≥ 0.3")
			}
			checkOneLane(t, s, seeds, ref)
			eachKernel(t, func(t *testing.T, k drawKernel) {
				for n := 1; n <= len(seeds); n++ {
					checkAgainstReference(t, k, s, seeds[:n], ref[:n])
				}
			})
		})
	}
}

// handSchedule builds a program-less schedule whose sites have the given
// probabilities, cycling through the fault kinds so every branch count is
// exercised.
func handSchedule(ps []float64) *Schedule {
	s := &Schedule{start: []int32{0, int32(len(ps))}, class: make([]GateClass, len(ps))}
	for i, p := range ps {
		s.faults = append(s.faults, Fault{P: p, Q1: 0, Q2: 1, Kind: FaultKind(i % NumFaultKinds)})
	}
	s.reject = rejectBounds(s.faults)
	return s
}

// unshift inverts y = x ^ x>>sh.
func unshift(y uint64, sh uint) uint64 {
	x := y
	for s := sh; s < 64; s += sh {
		x ^= y >> s
	}
	return x
}

// oddInverse returns c⁻¹ mod 2⁶⁴ for odd c (Newton's iteration).
func oddInverse(c uint64) uint64 {
	inv := c
	for i := 0; i < 5; i++ {
		inv *= 2 - c*inv
	}
	return inv
}

// finalize is SplitMix64's last step: SplitMix64(x) = finalize(SplitMix64Mix(x)).
func finalize(m uint64) uint64 { return m ^ m>>31 }

// seedForDraw returns the shot seed whose fault stream draws exactly d at
// site k, by inverting SplitMix64 and the stream's state sequence.
func seedForDraw(k int, d uint64) int64 {
	x := oddInverse(0x94D049BB133111EB) * unshift(d, 31)
	x = oddInverse(0xBF58476D1CE4E5B9) * unshift(x, 27)
	x = unshift(x, 30) - orqcs.SplitMix64Gamma
	return int64((x - uint64(k)*orqcs.SplitMix64Gamma) ^ noiseSalt)
}

// boundaryDraws lists the draws at the edge of a site's firing region and
// of its reject bound: the last firing draw lim and the first non-firing
// one, the extremes, and the outputs whose pre-finalizer mix sits exactly
// on and just past the reject bound.
func boundaryDraws(p float64) []uint64 {
	var lim uint64
	if c := math.Ceil(p * (1 << 53)); c > 0 {
		lim = uint64(c)<<11 - 1
	}
	r := lim | rejectMask
	return []uint64{0, 1, lim, lim + 1, lim - 1, lim &^ 0x7FF, ^uint64(0), finalize(r), finalize(r + 1), finalize(r - 1)}
}

// TestKernelBoundaryProbabilities drives hand-built sites with extreme and
// boundary probabilities (P = 0, P = 1, P·2⁵³ integral, P = 1e-300 and
// their float neighbours) with seeds crafted to land draws on their firing
// and reject boundaries, and requires the one-lane loop and both FiredBatch
// paths, at every lane count 1..64, to match the reference lane for lane.
func TestKernelBoundaryProbabilities(t *testing.T) {
	var ps []float64
	for _, p := range []float64{0, 1, 0.5, 1.0 / 1024, 1e-300, 1e-3} {
		ps = append(ps, p)
		if p > 0 {
			ps = append(ps, math.Nextafter(p, 0))
		}
		if p < 1 {
			ps = append(ps, math.Nextafter(p, 1))
		}
	}
	s := handSchedule(ps)
	var seeds []int64
	for k, p := range ps {
		for _, d := range boundaryDraws(p) {
			sd := seedForDraw(k, d)
			if got := orqcs.SplitMix64((uint64(sd) ^ noiseSalt) + uint64(k)*orqcs.SplitMix64Gamma); got != d {
				t.Fatalf("seedForDraw(%d, %#x) draws %#x", k, d, got)
			}
			seeds = append(seeds, sd)
			fires := slices.ContainsFunc(referenceFired(s, sd), func(f FiredFault) bool { return int(f.Site) == k })
			if want := float64(d>>11) < p*(1<<53); fires != want {
				t.Fatalf("site %d (P=%g) draw %#x: reference fires %v, want %v", k, p, d, fires, want)
			}
		}
	}
	ref := make([][]FiredFault, len(seeds))
	for i, sd := range seeds {
		ref[i] = referenceFired(s, sd)
	}
	checkOneLane(t, s, seeds, ref)
	// Every lane count tiles the crafted seeds differently, so each boundary
	// draw lands in many lanes of both full and partial vectors.
	eachKernel(t, func(t *testing.T, k drawKernel) {
		for n := 1; n <= 64; n++ {
			for i := 0; i < len(seeds); i += n {
				j := min(i+n, len(seeds))
				checkAgainstReference(t, k, s, seeds[i:j], ref[i:j])
			}
		}
	})
}

// TestRejectLemma checks the reject bound's premise on random and
// boundary-hugging values: a SplitMix64 output o = m ^ m>>31 within a
// site's firing limit implies its pre-finalizer mix m is within
// lim | rejectMask, so rejecting on m loses no firing draw.
func TestRejectLemma(t *testing.T) {
	st := uint64(12345)
	next := func() uint64 {
		st += orqcs.SplitMix64Gamma
		return orqcs.SplitMix64(st)
	}
	inside := 0
	for i := 0; i < 1<<20; i++ {
		lim := next()
		if i%2 == 0 {
			lim = lim>>11<<11 | 0x7FF // a real site bound: ceil(P·2⁵³)<<11 − 1
		}
		var m uint64
		switch i % 4 {
		case 0, 1:
			m = next()
		case 2: // share the bound's top 31 bits
			m = lim&^rejectMask | next()&rejectMask
		case 3: // just past the bound
			m = (lim | rejectMask) + next()%4
		}
		if finalize(m) <= lim {
			inside++
			if m > lim|rejectMask {
				t.Fatalf("o = %#x ≤ lim %#x but mix %#x > bound %#x", finalize(m), lim, m, lim|rejectMask)
			}
		}
	}
	if inside == 0 {
		t.Fatal("no sample satisfied o ≤ lim: the property was never exercised")
	}
}

// TestDecodedScheduleFires round-trips a schedule holding P = 0 and other
// boundary sites through AppendSchedule/DecodeSchedule and requires the
// decoded schedule to fire exactly like the original, the P = 0 site never
// (a bound built naively as ceil(0)<<11 − 1 wraps to 2⁶⁴ − 1 and would
// make every draw a candidate).
func TestDecodedScheduleFires(t *testing.T) {
	prog := memoryProgram(t, 3, 3)
	s := Compile(Depolarizing(3e-3), prog)
	for k, p := range map[int]float64{0: 0, 1: 1, 2: 0.5, 3: 1e-300} {
		s.faults[k].P = p
	}
	s.reject = rejectBounds(s.faults)
	dec, err := DecodeSchedule(AppendSchedule(nil, s), prog)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(dec.reject, s.reject) {
		t.Fatal("decoded reject bounds differ from the original's")
	}
	if dec.reject[0] != rejectMask || dec.reject[1] != ^uint64(0) {
		t.Fatalf("P = 0 and P = 1 bounds %#x, %#x; want %#x (lim 0) and all ones", dec.reject[0], dec.reject[1], uint64(rejectMask))
	}
	var seeds []int64
	for i := 0; i < 256; i++ {
		seeds = append(seeds, orqcs.ShotSeed(3, i))
	}
	for _, d := range boundaryDraws(0) {
		seeds = append(seeds, seedForDraw(0, d))
	}
	for _, sd := range seeds {
		a, b := s.FiredFaults(sd, nil), dec.FiredFaults(sd, nil)
		if !slices.Equal(a, b) {
			t.Fatalf("seed %#x: decoded schedule fired %v, original %v", uint64(sd), b, a)
		}
		if !slices.Equal(a, referenceFired(s, sd)) {
			t.Fatalf("seed %#x: kernel %v, reference %v", uint64(sd), a, referenceFired(s, sd))
		}
		if len(a) == 0 || a[0].Site == 0 {
			t.Fatalf("seed %#x: P = 0 site fired or P = 1 site did not: %v", uint64(sd), a)
		}
	}
}

// BenchmarkFiredBatch times each draw kernel this host runs on a 64-lane
// batch of d=13 memory shots, the frame sampler's per-batch call, at a
// dense and a sparse depolarizing rate; ns/draw is per fault site per lane.
// The portable path is timed on every host.
func BenchmarkFiredBatch(b *testing.B) {
	prog := memoryProgram(b, 13, 13)
	for _, p := range []float64{1e-3, 5e-5} {
		s := Compile(Depolarizing(p), prog)
		for _, k := range drawKernels() {
			b.Run(fmt.Sprintf("%s/d=13/p=%g", k.name, p), func(b *testing.B) {
				if k.skip != "" {
					b.Skip(k.skip)
				}
				seeds := make([]uint64, 64)
				var buf []uint64
				for i := 0; i < b.N; i++ {
					for l := range seeds {
						seeds[l] = uint64(orqcs.ShotSeed(int64(i), l))
					}
					buf = k.run(s, seeds, buf[:0])
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(b.N)*64*float64(s.NumFaultSites())), "ns/draw")
			})
		}
	}
}

// BenchmarkFiredFaults times the one-lane loop behind FiredFaults and the
// tableau RunShot on d=13 memory shots; ns/draw is per fault site.
func BenchmarkFiredFaults(b *testing.B) {
	prog := memoryProgram(b, 13, 13)
	for _, p := range []float64{1e-3, 5e-5} {
		s := Compile(Depolarizing(p), prog)
		b.Run(fmt.Sprintf("d=13/p=%g", p), func(b *testing.B) {
			var buf []FiredFault
			for i := 0; i < b.N; i++ {
				buf = s.FiredFaults(orqcs.ShotSeed(int64(i), 0), buf[:0])
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(b.N)*float64(s.NumFaultSites())), "ns/draw")
		})
	}
}
