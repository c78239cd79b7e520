package noise

import (
	"math"

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
	slots := make([][]Fault, len(instrs)+1)
	classes := make([][]GateClass, len(instrs)+1)
	add := func(slot int, f Fault, c GateClass) {
		if f.P > 1 {
			f.P = 1 // defense against out-of-range models; see Model.Validate
		}
		if f.P > 0 {
			slots[slot] = append(slots[slot], f)
			classes[slot] = append(classes[slot], c)
		}
	}
	// pre emits the gap-derived channels of one operand before slot i.
	pre := func(slot int, q int32, idleNs int64, moves int32) {
		if m.T2 > 0 && idleNs > 0 {
			pz := (1 - math.Exp(-float64(idleNs)/m.T2)) / 2
			add(slot, Fault{P: pz, Q1: q, Kind: FaultDephase}, ClassIdle)
		}
		if m.PMove > 0 && moves > 0 {
			// k per-step depolarizings compose to one: each step shrinks the
			// Bloch vector by (1 − 4p/3), so the net channel is depolarizing
			// with probability (3/4)(1 − (1 − 4p/3)^k).
			pk := 0.75 * (1 - math.Pow(1-4*m.PMove/3, float64(moves)))
			add(slot, Fault{P: pk, Q1: q, Kind: FaultDepol1}, ClassTransport)
		}
	}
	// Constant-folded first-touch preparations still suffer SPAM errors:
	// charge PPrep at the stream position each folded prep precedes.
	for _, f := range p.FoldedPreps() {
		add(int(f.Slot), Fault{P: m.PPrep, Q1: f.Q, Kind: FaultFlipX}, ClassPrep)
	}
	for i := range instrs {
		in := &instrs[i]
		g := p.Gap(i)
		pre(i, in.Q1, g.Idle1, g.Moves1)
		if in.Op == orqcs.OpZZ {
			pre(i, in.Q2, g.Idle2, g.Moves2)
		}
		switch in.Op {
		case orqcs.OpPrepareZ:
			add(i+1, Fault{P: m.PPrep, Q1: in.Q1, Kind: FaultFlipX}, ClassPrep)
		case orqcs.OpMeasureZ:
			add(i, Fault{P: m.PMeas, Q1: in.Q1, Kind: FaultFlipX}, ClassMeas)
		case orqcs.OpZZ:
			add(i+1, Fault{P: m.P2, Q1: in.Q1, Q2: in.Q2, Kind: FaultDepol2}, ClassTwoQubit)
		case orqcs.OpZ, orqcs.OpS, orqcs.OpSdg, orqcs.OpT, orqcs.OpTdg:
			add(i+1, Fault{P: m.P1Z, Q1: in.Q1, Kind: FaultDepol1}, ClassOneQubitZ)
		default: // X/Y-bus one-qubit rotations
			add(i+1, Fault{P: m.P1, Q1: in.Q1, Kind: FaultDepol1}, ClassOneQubit)
		}
	}
	s.start = make([]int32, len(slots)+1)
	total := 0
	for i, sl := range slots {
		s.start[i] = int32(total)
		total += len(sl)
	}
	s.start[len(slots)] = int32(total)
	s.faults = make([]Fault, 0, total)
	s.class = make([]GateClass, 0, total)
	for i, sl := range slots {
		s.faults = append(s.faults, sl...)
		s.class = append(s.class, classes[i]...)
	}
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

// branch maps a fired draw u < p to one of n equiprobable branches.
func branch(u, p float64, n int) int {
	b := int(u * float64(n) / p)
	if b >= n { // guard the floating-point boundary
		b = n - 1
	}
	return b
}

// FiredFault is one fault firing of a shot: the site's index into the
// schedule's fault table and the branch it fired into, in Fault.Branch
// order.
type FiredFault struct {
	Site, Branch int32
}

// FiredFaults samples the fault stream of the shot with the given seed,
// appending the sites that fire, in ascending site order and each with the
// branch it fires into, to buf. It runs the draw kernel (eachFired) on one
// lane. The tableau RunShot and the frame sampler's batches apply exactly
// this list, and the determinism tests and the detector-error-model check
// read it without simulating.
func (s *Schedule) FiredFaults(seed int64, buf []FiredFault) []FiredFault {
	seeds := [1]uint64{uint64(seed)}
	s.eachFired(seeds[:], 0, func(w uint64) {
		buf = append(buf, FiredFault{Site: int32(w >> 32), Branch: int32(w >> 6 & 0xF)})
	})
	return buf
}

// FiredBatch appends the firings of up to 64 shots to buf, lane i being the
// shot with seed int64(seeds[i]) (orqcs.ShotSeed's value), and returns the
// extended buffer. Each firing is packed into one word,
// site<<32 | branch<<6 | lane, with lane i's firings exactly
// FiredFaults(int64(seeds[i])). Lanes run through the draw kernel four at a
// time; each group of four lists its firings in ascending site order, lanes
// ascending within a site, so sorting the words orders the whole batch by
// site.
func (s *Schedule) FiredBatch(seeds []uint64, buf []uint64) []uint64 {
	if len(seeds) > 64 {
		panic("noise: FiredBatch takes at most 64 lanes")
	}
	add := func(w uint64) { buf = append(buf, w) }
	for g := 0; g < len(seeds); g += 4 {
		s.eachFired(seeds[g:min(g+4, len(seeds))], g, add)
	}
	return buf
}

// eachFired is the draw kernel, the one code that draws fault variates: it
// walks the fault table once for the fault streams of one to four shots
// (seeds, lanes lane0 onwards) and hands each firing to visit packed as
// site<<32 | branch<<6 | lane, in ascending site order, lanes ascending
// within a site. Lanes past len(seeds) are padding copies of the last seed,
// so they add no candidates of their own.
//
// Shot seed x's fault stream is the SplitMix64 stream in state
// x ^ noiseSalt, with exactly one draw per fault site, fired or not: draw k
// is that stream's output k. Its top 53 bits v fire site k when
// v < P·2⁵³, and v/2⁵³ (uniform in [0, P) given the fire) picks the
// branch. scan rejects most draws on their pre-finalizer mix against the
// site's reject bound (see rejectBounds); only the candidates it stops at
// finish the output and take the exact test.
//
//tiscc:hotpath
func (s *Schedule) eachFired(seeds []uint64, lane0 int, visit func(w uint64)) {
	n := len(seeds)
	pad := func(i int) uint64 { return seeds[min(i, n-1)] ^ noiseSalt }
	x0, x1, x2, x3 := pad(0), pad(1), pad(2), pad(3)
	for k := 0; ; k++ {
		k, x0, x1, x2, x3 = scan(s.reject, k, x0, x1, x2, x3)
		if k == len(s.reject) {
			return
		}
		f := &s.faults[k]
		th := f.P * (1 << 53)
		xs := [4]uint64{x0, x1, x2, x3}
		for i, x := range xs[:n] {
			v := float64(orqcs.SplitMix64(x) >> 11)
			if v < th {
				b := branch(v/(1<<53), f.P, f.NumBranches())
				visit(uint64(k)<<32 | uint64(b)<<6 | uint64(lane0+i))
			}
		}
		x0 += orqcs.SplitMix64Gamma
		x1 += orqcs.SplitMix64Gamma
		x2 += orqcs.SplitMix64Gamma
		x3 += orqcs.SplitMix64Gamma
	}
}

// scan is the draw kernel's hot loop. From site k on, with the four fault
// streams in states x0..x3, it returns the first site at which any
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
// directly into RunShotsFunc and EstimateManyFunc.
//
//tiscc:hotpath
func (s *Schedule) RunShot(e *orqcs.Engine, seed int64) {
	e.BeginShot(seed)
	tb := e.Tableau()
	instrs := s.prog.Instructions()
	next, fired := 0, 0 // instructions executed, faults applied
	apply := func(w uint64) {
		// Slot i's faults precede instruction i: catch up to the site's slot.
		site := int32(w >> 32)
		for s.start[next+1] <= site {
			e.Exec(&instrs[next])
			next++
		}
		fired++
		f := &s.faults[site]
		_, x1, z1, x2, z2 := f.Branch(int(w >> 6 & 0xF))
		tb.ApplyPauliError(int(f.Q1), x1, z1)
		if f.Kind == FaultDepol2 {
			tb.ApplyPauliError(int(f.Q2), x2, z2)
		}
	}
	seeds := [1]uint64{uint64(seed)}
	s.eachFired(seeds[:], 0, apply)
	for ; next < len(instrs); next++ {
		e.Exec(&instrs[next])
	}
	// One tableau shot is one sampler dispatch (a batch of a single lane).
	tel := e.Telemetry()
	tel.Inc(orqcs.CtrBatches)
	tel.Add(orqcs.CtrFaultsFired, uint64(fired))
	tel.Observe(orqcs.HistFaultsPerBatch, uint64(fired))
}

// RunShots executes noisy shots across the deterministic worker pool:
// the noisy counterpart of orqcs.RunShots, with the same visit contract and
// worker-count-independent per-shot seeding.
func (s *Schedule) RunShots(shots int, seed int64, workers int, visit func(shot int, e *orqcs.Engine) error) error {
	return orqcs.RunShotsFunc(s.prog, s.RunShot, shots, seed, workers, visit)
}

// EstimateMany Monte-Carlo-estimates several Pauli operators over the
// schedule's program under its noise model, evaluating all operators against
// each noisy shot in a single pass (see orqcs.EstimateMany for the
// determinism and memory contract).
func (s *Schedule) EstimateMany(ops []orqcs.SitePauli, shots int, seed int64, workers int) (means, stderrs []float64, err error) {
	return orqcs.EstimateManyFunc(s.prog, s.RunShot, ops, shots, seed, workers)
}
