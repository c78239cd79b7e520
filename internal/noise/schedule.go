package noise

import (
	"math"
	"math/bits"
	"slices"
	"sync/atomic"

	"tiscc/internal/cpuid"
	"tiscc/internal/orqcs"
)

// FaultKind names the sampling rule of one fault location.
type FaultKind uint8

// Fault kinds.
const (
	// FaultDepol1 applies X, Y or Z on Q1 with probability P/3 each.
	FaultDepol1 FaultKind = iota
	// FaultDepol2 applies one of the 15 non-identity two-qubit Paulis on
	// (Q1, Q2) with probability P/15 each.
	FaultDepol2
	// FaultFlipX applies X on Q1 with probability P (preparation and
	// measurement flips).
	FaultFlipX
	// FaultDephase applies Z on Q1 with probability P (idle dephasing).
	FaultDephase
)

func (k FaultKind) String() string {
	return [...]string{"depol1", "depol2", "flipX", "dephase"}[k]
}

// NumFaultKinds is the number of distinct FaultKind values.
const NumFaultKinds = 4

// GateClass names the compiled origin of a fault site — which gate-level
// channel of the model charged it. Together with the site's FaultKind it
// identifies an error-budget channel (e.g. two-qubit-gate depolarizing vs
// transport heating, both FaultDepol1/FaultDepol2 sampling rules), the
// granularity at which the diagnostics layer attributes logical failures.
type GateClass uint8

// Gate classes, in Compile's charging order.
const (
	// ClassPrep marks preparation flips (PPrep), including constant-folded
	// first-touch preparations.
	ClassPrep GateClass = iota
	// ClassMeas marks measurement flips (PMeas).
	ClassMeas
	// ClassTwoQubit marks two-qubit ZZ-gate depolarizing (P2).
	ClassTwoQubit
	// ClassOneQubitZ marks Z-bus one-qubit rotation depolarizing (P1Z).
	ClassOneQubitZ
	// ClassOneQubit marks X/Y-bus one-qubit rotation depolarizing (P1).
	ClassOneQubit
	// ClassIdle marks T2 idle dephasing charged from schedule gaps.
	ClassIdle
	// ClassTransport marks transport-heating depolarizing (PMove).
	ClassTransport
	// NumGateClasses is the number of distinct gate classes.
	NumGateClasses
)

func (c GateClass) String() string {
	return [...]string{"prep", "meas", "twoq", "oneq_z", "oneq_xy", "idle", "transport"}[c]
}

// Fault is one potential stochastic error location in a compiled schedule.
type Fault struct {
	P      float64 // total firing probability
	Q1, Q2 int32   // tableau qubit operands (Q2 used by FaultDepol2 only)
	Kind   FaultKind
}

// Schedule is a noise model compiled against one lowered program: a flat,
// immutable per-instruction fault table. Slot i holds the faults applied
// immediately before instruction i (idle dephasing, transport depolarizing,
// measurement flips, and the gate errors of instruction i−1); slot
// NumInstrs holds trailing faults. One Schedule may be shared by any number
// of concurrent shot workers.
type Schedule struct {
	prog   *orqcs.Program
	model  Model
	faults []Fault
	class  []GateClass // per-site gate class, parallel to faults
	start  []int32     // CSR offsets: slot i is faults[start[i]:start[i+1]]
	reject []uint64    // per-site draw-kernel reject bounds (see rejectBounds)

	// raw is the last raw readout table compiled against the schedule
	// (judge.compileRaw), keyed by its outcome formula's record ids, so
	// repeated raw estimates of one formula compile it once.
	raw atomic.Pointer[rawTable]
}

// rawTable is one outcome formula's effect table.
type rawTable struct {
	ids []int32
	eff *Effects
}

// Program returns the program the schedule was compiled against.
func (s *Schedule) Program() *orqcs.Program { return s.prog }

// Model returns the noise model the schedule was compiled from.
func (s *Schedule) Model() Model { return s.model }

// NumFaultSites returns the number of potential error locations per shot.
func (s *Schedule) NumFaultSites() int { return len(s.faults) }

// NumSlots returns the number of fault slots: one per instruction plus the
// trailing slot (NumInstrs + 1).
func (s *Schedule) NumSlots() int { return len(s.start) - 1 }

// SlotFaults returns the faults applied immediately before instruction slot
// (slot NumInstrs holds trailing faults). The returned slice aliases the
// schedule's backing storage and must be treated as read-only. The decoder
// subsystem walks these to map each fault location to the detectors it
// flips.
func (s *Schedule) SlotFaults(slot int) []Fault {
	return s.faults[s.start[slot]:s.start[slot+1]]
}

// SlotEnd returns the end of slot's fault sites: slot i holds sites
// [SlotEnd(i−1), SlotEnd(i)), and SlotEnd(NumSlots()−1) is NumFaultSites().
// A sampler walking the instruction stream applies a fired site before
// instruction i when the site is below SlotEnd(i).
func (s *Schedule) SlotEnd(slot int) int32 { return s.start[slot+1] }

// SiteFault returns fault site k of the flat fault table — the site indexed
// by FiredFaults output.
func (s *Schedule) SiteFault(k int) Fault { return s.faults[k] }

// SameSites reports whether o has s's fault sites: the same program and,
// slot by slot, the same fault kinds on the same operands. Only the
// probabilities may differ, so anything compiled from the sites alone —
// an effect table, a decoding-graph plan — holds for both.
func (s *Schedule) SameSites(o *Schedule) bool {
	if s == o {
		return true
	}
	if s.prog != o.prog || len(s.faults) != len(o.faults) || !slices.Equal(s.start, o.start) {
		return false
	}
	for k := range s.faults {
		a, b := &s.faults[k], &o.faults[k]
		if a.Kind != b.Kind || a.Q1 != b.Q1 || a.Q2 != b.Q2 {
			return false
		}
	}
	return true
}

// Bytes approximates the memory the schedule's tables hold: its fault
// sites (24 bytes each), their gate classes, the slot offsets and the
// reject bounds. The program is not counted.
func (s *Schedule) Bytes() int {
	return 24*len(s.faults) + len(s.class) + 4*len(s.start) + 8*len(s.reject)
}

// SiteClass returns the gate class of fault site k: which model channel
// charged the site at compile time. Together with SiteFault(k).Kind it names
// the site's error-budget channel.
func (s *Schedule) SiteClass(k int) GateClass { return s.class[k] }

// Compile flattens a noise model against a lowered program. Idle-dephasing
// probabilities are evaluated here, once, from the per-instruction schedule
// gaps the lowering pass recorded, so the per-shot loop never touches the
// timing model.
func Compile(m Model, p *orqcs.Program) *Schedule {
	s := &Schedule{prog: p, model: m}
	instrs := p.Instructions()
	folded := p.FoldedPreps()
	// The table is written slot by slot, so no per-slot lists are needed.
	// Slot i holds, in this order: the folded preparations that precede
	// instruction i, the gate error of instruction i−1 (a measurement's flip
	// is charged before it instead), instruction i's idle and transport
	// channels per operand, and its measurement flip.
	s.start = make([]int32, len(instrs)+2)
	s.faults = make([]Fault, 0, len(folded)+len(instrs))
	s.class = make([]GateClass, 0, len(folded)+len(instrs))
	add := func(f Fault, c GateClass) {
		if f.P > 1 {
			f.P = 1 // defense against out-of-range models; see Model.Validate
		}
		if f.P > 0 {
			s.faults = append(s.faults, f)
			s.class = append(s.class, c)
		}
	}
	// pre emits the gap-derived channels of one operand.
	pre := func(q int32, idleNs int64, moves int32) {
		if m.T2 > 0 && idleNs > 0 {
			pz := (1 - math.Exp(-float64(idleNs)/m.T2)) / 2
			add(Fault{P: pz, Q1: q, Kind: FaultDephase}, ClassIdle)
		}
		if m.PMove > 0 && moves > 0 {
			// k per-step depolarizings compose to one: each step shrinks the
			// Bloch vector by (1 − 4p/3), so the net channel is depolarizing
			// with probability (3/4)(1 − (1 − 4p/3)^k).
			pk := 0.75 * (1 - math.Pow(1-4*m.PMove/3, float64(moves)))
			add(Fault{P: pk, Q1: q, Kind: FaultDepol1}, ClassTransport)
		}
	}
	for slot := range len(instrs) + 1 {
		s.start[slot] = int32(len(s.faults))
		// Constant-folded first-touch preparations still suffer SPAM
		// errors: charge PPrep at the stream position each one precedes.
		for len(folded) > 0 && int(folded[0].Slot) == slot {
			add(Fault{P: m.PPrep, Q1: folded[0].Q, Kind: FaultFlipX}, ClassPrep)
			folded = folded[1:]
		}
		if slot > 0 {
			switch in := &instrs[slot-1]; in.Op {
			case orqcs.OpMeasureZ:
			case orqcs.OpPrepareZ:
				add(Fault{P: m.PPrep, Q1: in.Q1, Kind: FaultFlipX}, ClassPrep)
			case orqcs.OpZZ:
				add(Fault{P: m.P2, Q1: in.Q1, Q2: in.Q2, Kind: FaultDepol2}, ClassTwoQubit)
			case orqcs.OpZ, orqcs.OpS, orqcs.OpSdg, orqcs.OpT, orqcs.OpTdg:
				add(Fault{P: m.P1Z, Q1: in.Q1, Kind: FaultDepol1}, ClassOneQubitZ)
			default: // X/Y-bus one-qubit rotations
				add(Fault{P: m.P1, Q1: in.Q1, Kind: FaultDepol1}, ClassOneQubit)
			}
		}
		if slot == len(instrs) {
			break
		}
		in := &instrs[slot]
		g := p.Gap(slot)
		pre(in.Q1, g.Idle1, g.Moves1)
		if in.Op == orqcs.OpZZ {
			pre(in.Q2, g.Idle2, g.Moves2)
		}
		if in.Op == orqcs.OpMeasureZ {
			add(Fault{P: m.PMeas, Q1: in.Q1, Kind: FaultFlipX}, ClassMeas)
		}
	}
	s.start[len(instrs)+1] = int32(len(s.faults))
	s.reject = rejectBounds(s.faults)
	return s
}

// --- Fault sampling ----------------------------------------------------------

// noiseSalt separates the fault-sampling stream from the measurement-outcome
// stream derived from the same shot seed: a shot's fault stream is the
// SplitMix64 stream in state seed ^ noiseSalt, so the faults a shot fires
// are a pure function of its seed, independent of measurement randomness.
const noiseSalt = 0xD1B54A32D192ED03

// rejectMask is the low 33 bits a SplitMix64 output can differ in from its
// pre-finalizer mix (orqcs.SplitMix64Mix): o = m ^ m>>31 keeps m's top 31
// bits.
const rejectMask = 1<<33 - 1

// rejectBounds returns every site's reject bound for the draw kernel. Site
// k fires on draw o when its top 53 bits v = o>>11 satisfy v < P·2⁵³; both
// sides are exact (v < 2⁵³, power-of-two scaling), so for integer v that is
// v < ceil(P·2⁵³), i.e. o ≤ lim = ceil(P·2⁵³)<<11 − 1. Since o and its
// pre-finalizer mix m share their top 31 bits, o ≤ lim implies
// m>>33 ≤ lim>>33, i.e. m ≤ lim | rejectMask: a draw whose mix exceeds the
// bound cannot fire. A P = 0 site fires on no draw, so any bound is sound
// for it; it takes lim = 0 rather than the wrapped ceil(0)<<11 − 1 = 2⁶⁴ − 1,
// which would make every draw a candidate. (P = 1 wraps to 2⁶⁴ − 1 too, and
// rightly: every draw fires.)
func rejectBounds(faults []Fault) []uint64 {
	r := make([]uint64, len(faults))
	for i := range faults {
		var lim uint64
		if c := math.Ceil(faults[i].P * (1 << 53)); c > 0 {
			lim = uint64(c)<<11 - 1
		}
		r[i] = lim | rejectMask
	}
	return r
}

// depol2Pauli holds the X/Z bits of one two-qubit Pauli branch.
type depol2Pauli struct{ x1, z1, x2, z2 bool }

// depol2Table enumerates the 15 non-identity two-qubit Paulis.
var depol2Table = func() [15]depol2Pauli {
	bits := [4][2]bool{{false, false}, {true, false}, {true, true}, {false, true}} // I X Y Z
	var t [15]depol2Pauli
	k := 0
	for a := 0; a < 4; a++ {
		for b := 0; b < 4; b++ {
			if a == 0 && b == 0 {
				continue
			}
			t[k] = depol2Pauli{bits[a][0], bits[a][1], bits[b][0], bits[b][1]}
			k++
		}
	}
	return t
}()

// NumBranches returns the number of distinct Pauli branches the fault can
// fire into (1 for flips and dephasing, 3 for one-qubit depolarizing, 15 for
// two-qubit depolarizing).
func (f *Fault) NumBranches() int {
	switch f.Kind {
	case FaultDepol1:
		return 3
	case FaultDepol2:
		return 15
	}
	return 1
}

// Branch returns branch b of the fault: its firing probability and the X/Z
// bits of the Pauli applied to Q1 (and, for two-qubit faults, Q2), in the
// order depol1: X, Y, Z; depol2: depol2Table order. It is the one
// fault-branch mapping: FiredFaults picks branch indices into it, both shot
// engines apply a fired fault's branch through it, and the decoder
// subsystem enumerates branches through it to compile a fault schedule into
// a detector error model.
func (f *Fault) Branch(b int) (p float64, x1, z1, x2, z2 bool) {
	switch f.Kind {
	case FaultFlipX:
		return f.P, true, false, false, false
	case FaultDephase:
		return f.P, false, true, false, false
	case FaultDepol1:
		switch b {
		case 0:
			return f.P / 3, true, false, false, false // X
		case 1:
			return f.P / 3, true, true, false, false // Y
		default:
			return f.P / 3, false, true, false, false // Z
		}
	case FaultDepol2:
		pp := &depol2Table[b]
		return f.P / 15, pp.x1, pp.z1, pp.x2, pp.z2
	}
	panic("noise: unknown fault kind")
}

// BranchP returns the probability each branch of the fault fires with. A
// fault's branches are equiprobable (TestBranchesEquiprobable), so code that
// weighs every branch of a site reads Branch(0)'s probability once.
func (f *Fault) BranchP() float64 {
	p, _, _, _, _ := f.Branch(0)
	return p
}

// branch maps a fired draw u < p to one of n equiprobable branches.
func branch(u, p float64, n int) int {
	b := int(u * float64(n) / p)
	if b >= n { // guard the floating-point boundary
		b = n - 1
	}
	return b
}

// fire is the exact firing test every draw loop applies to a candidate:
// draw o fires site k when its top 53 bits v satisfy v < P·2⁵³, and v/2⁵³
// (uniform in [0, P) given the fire) picks the branch.
func (s *Schedule) fire(k int, o uint64) (b int, ok bool) {
	f := &s.faults[k]
	v := float64(o >> 11)
	if !(v < f.P*(1<<53)) {
		return 0, false
	}
	return branch(v/(1<<53), f.P, f.NumBranches()), true
}

// FiredFault is one fault firing of a shot: the site's index into the
// schedule's fault table and the branch it fired into, in Fault.Branch
// order.
type FiredFault struct {
	Site, Branch int32
}

// FiredFaults samples the fault stream of the shot with the given seed,
// appending the sites that fire, in ascending site order and each with the
// branch it fires into, to buf. The tableau RunShot and the frame sampler's
// batches apply exactly this list, and the determinism tests and the
// detector-error-model check read it without simulating.
func (s *Schedule) FiredFaults(seed int64, buf []FiredFault) []FiredFault {
	s.eachFired(seed, func(k, b int) {
		buf = append(buf, FiredFault{Site: int32(k), Branch: int32(b)})
	})
	return buf
}

// The fault stream. Shot seed x's fault stream is the SplitMix64 stream in
// state x ^ noiseSalt, with exactly one draw per fault site, fired or not:
// draw k is that stream's output k, and fire decides it. Three loops draw
// it — one lane (eachFired), four lanes (firedPortable) and 64 lanes
// (firedAVX512) — and every one rejects most draws on their pre-finalizer
// mix against the site's reject bound (see rejectBounds), finishing the
// output only for the candidates.

// eachFired draws the fault stream of one shot and hands each firing to
// visit, in ascending site order: one mix per draw.
//
//tiscc:hotpath
func (s *Schedule) eachFired(seed int64, visit func(site, branch int)) {
	x := uint64(seed) ^ noiseSalt
	for k, r := range s.reject {
		if m := orqcs.SplitMix64Mix(x); m <= r {
			if b, ok := s.fire(k, m^m>>31); ok {
				visit(k, b)
			}
		}
		x += orqcs.SplitMix64Gamma
	}
}

// firing packs one firing of a batch as site<<32 | lane<<4 | branch, so
// that the words of a batch ascend as their (site, lane) pairs do.
// FiredSite, FiredLane and FiredBranch unpack it.
func firing(site, lane, branch int) uint64 {
	return uint64(site)<<32 | uint64(lane)<<4 | uint64(branch)
}

// FiredSite returns the fault site of a FiredBatch word.
func FiredSite(w uint64) int { return int(w >> 32) }

// FiredLane returns the lane of a FiredBatch word.
func FiredLane(w uint64) uint { return uint(w >> 4 & 63) }

// FiredBranch returns the branch of a FiredBatch word, in Fault.Branch
// order.
func FiredBranch(w uint64) int { return int(w & 0xF) }

// FiredBatch appends the firings of up to 64 shots to buf, lane i being the
// shot with seed int64(seeds[i]) (orqcs.ShotSeed's value), and returns the
// extended buffer. Each firing is packed into one word,
// site<<32 | lane<<4 | branch, with lane i's firings exactly
// FiredFaults(int64(seeds[i])). The appended words ascend strictly, that
// is by site and by lane within a site, on every host. Where cpuid.AVX512
// holds it runs the 64-lane AVX-512 kernel, elsewhere the portable one.
func (s *Schedule) FiredBatch(seeds []uint64, buf []uint64) []uint64 {
	switch {
	case len(seeds) > 64:
		panic("noise: FiredBatch takes at most 64 lanes")
	case len(seeds) == 0:
		return buf
	case cpuid.AVX512:
		return s.firedAVX512(seeds, buf)
	}
	return s.firedPortable(seeds, buf)
}

// firedAVX512 is FiredBatch on one pass over the fault table for all lanes:
// scanAVX512 finds the sites where some lane is a candidate, and only those
// lanes finish their draws here. Lanes past len(seeds) copy the last seed,
// so they stop nowhere the last lane does not, and are masked off.
func (s *Schedule) firedAVX512(seeds []uint64, buf []uint64) []uint64 {
	n := len(seeds)
	var x [64]uint64
	for i := range x {
		x[i] = seeds[min(i, n-1)] ^ noiseSalt
	}
	lanes := ^uint64(0) >> (64 - n)
	for k := 0; ; k++ {
		var cand uint64
		k, cand = scanAVX512(s.reject, k, &x)
		if k == len(s.reject) {
			return buf
		}
		for cand &= lanes; cand != 0; cand &= cand - 1 {
			i := bits.TrailingZeros64(cand)
			if b, ok := s.fire(k, orqcs.SplitMix64(x[i]-orqcs.SplitMix64Gamma)); ok {
				buf = append(buf, firing(k, i, b))
			}
		}
	}
}

// firedPortable is FiredBatch on hosts without AVX-512: the lanes go
// through scan four at a time, each group's firings ascending, and one sort
// orders the batch.
func (s *Schedule) firedPortable(seeds []uint64, buf []uint64) []uint64 {
	n, first := len(seeds), len(buf)
	for g := 0; g < n; g += 4 {
		// Lanes past n are padding copies of the last seed, so they add no
		// candidates of their own.
		pad := func(i int) uint64 { return seeds[min(g+i, n-1)] ^ noiseSalt }
		x0, x1, x2, x3 := pad(0), pad(1), pad(2), pad(3)
		for k := 0; ; k++ {
			k, x0, x1, x2, x3 = scan(s.reject, k, x0, x1, x2, x3)
			if k == len(s.reject) {
				break
			}
			xs := [4]uint64{x0, x1, x2, x3}
			for i, x := range xs[:min(4, n-g)] {
				if b, ok := s.fire(k, orqcs.SplitMix64(x)); ok {
					buf = append(buf, firing(k, g+i, b))
				}
			}
			x0 += orqcs.SplitMix64Gamma
			x1 += orqcs.SplitMix64Gamma
			x2 += orqcs.SplitMix64Gamma
			x3 += orqcs.SplitMix64Gamma
		}
	}
	if n > 4 {
		slices.Sort(buf[first:])
	}
	return buf
}

// scan is the portable kernel's hot loop. From site k on, with the four
// fault streams in states x0..x3, it returns the first site at which any
// stream's pre-finalizer mix is within the site's reject bound (a
// candidate; len(reject) when no site is one) and the four states at that
// site. The loop makes no calls: orqcs.SplitMix64Mix inlines.
//
//tiscc:hotpath
func scan(reject []uint64, k int, x0, x1, x2, x3 uint64) (int, uint64, uint64, uint64, uint64) {
	for ; k < len(reject); k++ {
		m := min(orqcs.SplitMix64Mix(x0), orqcs.SplitMix64Mix(x1), orqcs.SplitMix64Mix(x2), orqcs.SplitMix64Mix(x3))
		if m <= reject[k] {
			break
		}
		x0 += orqcs.SplitMix64Gamma
		x1 += orqcs.SplitMix64Gamma
		x2 += orqcs.SplitMix64Gamma
		x3 += orqcs.SplitMix64Gamma
	}
	return k, x0, x1, x2, x3
}

// RunShot executes one noisy shot of the schedule's program on the engine:
// the shot's fired faults (FiredFaults' stream) are applied to the
// tableau's Pauli frame in place as the lowered instruction stream reaches
// their slots, and no allocation happens per shot. The engine must have
// been built from the same program. For a fixed schedule the shot outcome
// depends only on the seed. RunShot is an orqcs.ShotFunc, so it plugs
// directly into orqcs.RunShots and orqcs.EstimateMany.
//
//tiscc:hotpath
func (s *Schedule) RunShot(e *orqcs.Engine, seed int64) {
	e.BeginShot(seed)
	tb := e.Tableau()
	instrs := s.prog.Instructions()
	next, fired := 0, 0 // instructions executed, faults applied
	apply := func(site, b int) {
		// Slot i's faults precede instruction i: catch up to the site's slot.
		for int(s.start[next+1]) <= site {
			e.Exec(&instrs[next])
			next++
		}
		fired++
		f := &s.faults[site]
		_, x1, z1, x2, z2 := f.Branch(b)
		tb.ApplyPauliError(int(f.Q1), x1, z1)
		if f.Kind == FaultDepol2 {
			tb.ApplyPauliError(int(f.Q2), x2, z2)
		}
	}
	s.eachFired(seed, apply)
	for ; next < len(instrs); next++ {
		e.Exec(&instrs[next])
	}
	// One tableau shot is one sampler dispatch (a batch of a single lane).
	tel := e.Telemetry()
	tel.Inc(orqcs.CtrBatches)
	tel.Add(orqcs.CtrFaultsFired, uint64(fired))
	tel.Observe(orqcs.HistFaultsPerBatch, uint64(fired))
}
