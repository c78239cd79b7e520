package noise

import (
	"math"
	"math/bits"

	"tiscc/internal/orqcs"
	"tiscc/internal/tableau"
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
	// thresh[k] = faults[k].P · 2⁵³: the firing test u < P on the raw 53-bit
	// draw, avoiding the uniform's division on the batch sampler's hot path.
	// Both sides are exact (power-of-two scaling), so the comparison is
	// bit-equivalent to applySlot's.
	thresh []float64
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

// SiteFault returns fault site k of the flat fault table — the site indexed
// by FiredFaults replay output.
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
	s.thresh = make([]float64, len(s.faults))
	for i := range s.faults {
		s.thresh[i] = s.faults[i].P * (1 << 53)
	}
	return s
}

// --- Fault sampling ----------------------------------------------------------

// noiseSalt separates the fault-sampling stream from the measurement-outcome
// stream derived from the same shot seed.
const noiseSalt = 0xD1B54A32D192ED03

// nrng is the schedule's dedicated SplitMix64 fault stream (the same O(1)
// reseed generator the engine uses for measurement outcomes, on a decorrelated
// seed). Keeping the streams separate makes the fault schedule of a shot a
// pure function of the shot seed, independent of measurement randomness.
type nrng struct{ state uint64 }

func (r *nrng) next() float64 {
	r.state += 0x9E3779B97F4A7C15
	x := r.state
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	x ^= x >> 31
	return float64(x>>11) / (1 << 53)
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
// fault-branch mapping: both shot samplers apply a fired fault's branch
// through it, FiredFaults replays report branch indices into it, and the
// decoder subsystem enumerates branches through it to compile a fault
// schedule into a detector error model.
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

// applySlot samples every fault of one slot, applying fired ones to the
// tableau as Pauli frame updates, and returns how many fired. Exactly one
// uniform draw per fault location, fired or not, so the draw sequence is
// schedule-shaped and a shot can be replayed (FiredFaults) without
// simulating.
func (s *Schedule) applySlot(slot int, tb tableau.State, r *nrng) int {
	fired := 0
	for k := s.start[slot]; k < s.start[slot+1]; k++ {
		f := &s.faults[k]
		u := r.next()
		if u >= f.P {
			continue
		}
		fired++
		// Reuse u: u/P is uniform in [0, 1) given the fault fired.
		_, x1, z1, x2, z2 := f.Branch(branch(u, f.P, f.NumBranches()))
		tb.ApplyPauliError(int(f.Q1), x1, z1)
		if f.Kind == FaultDepol2 {
			tb.ApplyPauliError(int(f.Q2), x2, z2)
		}
	}
	return fired
}

// branch maps a fired draw u < p to one of n equiprobable branches.
func branch(u, p float64, n int) int {
	b := int(u * float64(n) / p)
	if b >= n { // guard the floating-point boundary
		b = n - 1
	}
	return b
}

// RunShot executes one noisy shot of the schedule's program on the engine:
// the compiled fault schedule is interleaved with the lowered instruction
// stream, fired faults update the tableau's Pauli frame in place, and no
// allocation happens per shot. The engine must have been built from the same
// program. For a fixed schedule the shot outcome depends only on the seed.
// RunShot is an orqcs.ShotFunc, so it plugs directly into RunShotsFunc and
// EstimateManyFunc.
//
//tiscc:hotpath
func (s *Schedule) RunShot(e *orqcs.Engine, seed int64) {
	e.BeginShot(seed)
	tb := e.Tableau()
	r := nrng{state: uint64(seed) ^ noiseSalt}
	instrs := s.prog.Instructions()
	fired := 0
	for i := range instrs {
		fired += s.applySlot(i, tb, &r)
		e.Exec(&instrs[i])
	}
	fired += s.applySlot(len(instrs), tb, &r)
	// One tableau shot is one sampler dispatch (a batch of a single lane).
	tel := e.Telemetry()
	tel.Inc(orqcs.CtrBatches)
	tel.Add(orqcs.CtrFaultsFired, uint64(fired))
	tel.Observe(orqcs.HistFaultsPerBatch, uint64(fired))
}

// FiredFault is one fault firing of a replayed shot: the site's index into
// the schedule's fault table and the branch it fired into, in Fault.Branch
// order.
type FiredFault struct {
	Site, Branch int32
}

// FiredFaults replays the fault sampling of one shot without simulating,
// appending the locations that fire, each with the branch it fires into, to
// buf. It draws the exact sequence RunShot draws and maps each fired draw
// to its branch exactly as applySlot does, so the result is the fault
// schedule that shot experiences — used by the diagnostics layer's
// attribution, determinism tests and the detector-error-model check.
func (s *Schedule) FiredFaults(seed int64, buf []FiredFault) []FiredFault {
	r := nrng{state: uint64(seed) ^ noiseSalt}
	for k := range s.faults {
		f := &s.faults[k]
		if u := r.next(); u < f.P {
			buf = append(buf, FiredFault{Site: int32(k), Branch: int32(branch(u, f.P, f.NumBranches()))})
		}
	}
	return buf
}

// FaultStreamState returns the initial state of one shot's fault-sampling
// SplitMix64 stream — the stream RunShot seeds from the same shot seed. Batch
// samplers (the Pauli-frame engine) seed one lane per shot with this and
// advance the lanes through SampleSlotBatch.
func FaultStreamState(shotSeed int64) uint64 { return uint64(shotSeed) ^ noiseSalt }

// SampleSlotBatch samples every fault of one slot for up to 64 concurrent
// shots, XOR-ing fired Paulis into per-qubit frame bit-planes: bit i of
// fx[q] / fz[q] is lane i's X / Z frame on tableau qubit q. states[i] is lane
// i's fault-stream state (seed with FaultStreamState), advanced in place by
// exactly one draw per fault site, fired or not — the same sequence RunShot
// draws — so lane i fires exactly the faults FiredFaults reports for its
// seed, and frame-engine shots stay bit-identical to tableau shots. It
// returns the number of (site, lane) fault firings applied.
//
//tiscc:hotpath
func (s *Schedule) SampleSlotBatch(slot int, states []uint64, fx, fz []uint64) int {
	var raw [64]float64
	total := 0
	for k := s.start[slot]; k < s.start[slot+1]; k++ {
		th := s.thresh[k]
		var fired uint64
		for i := range states {
			states[i] += 0x9E3779B97F4A7C15
			x := states[i]
			x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
			x = (x ^ (x >> 27)) * 0x94D049BB133111EB
			x ^= x >> 31
			if v := float64(x >> 11); v < th {
				fired |= 1 << uint(i)
				raw[i] = v
			}
		}
		if fired == 0 {
			continue
		}
		total += bits.OnesCount64(fired)
		f := &s.faults[k]
		var mx1, mz1, mx2, mz2 uint64
		for m := fired; m != 0; m &= m - 1 {
			i := uint(bits.TrailingZeros64(m))
			// Reuse the fired draw, exactly as applySlot does.
			_, x1, z1, x2, z2 := f.Branch(branch(raw[i]/(1<<53), f.P, f.NumBranches()))
			mx1 |= b2w(x1) << i
			mz1 |= b2w(z1) << i
			mx2 |= b2w(x2) << i
			mz2 |= b2w(z2) << i
		}
		fx[f.Q1] ^= mx1
		fz[f.Q1] ^= mz1
		if f.Kind == FaultDepol2 {
			fx[f.Q2] ^= mx2
			fz[f.Q2] ^= mz2
		}
	}
	return total
}

// b2w is 1 for true, 0 for false.
func b2w(b bool) uint64 {
	if b {
		return 1
	}
	return 0
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
