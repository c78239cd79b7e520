// Package frame implements a batch Pauli-frame sampler over compiled
// programs: the Stim-style observation that under purely Pauli (stochastic
// Clifford-frame) noise, a noisy shot differs from a fixed noiseless
// reference shot only by a Pauli operator — the frame — that faults inject
// and Clifford gates merely conjugate. One reference shot through the exact
// tableau engine records everything shot-invariant (each measurement's
// deterministic/random character, its reference outcome, and the stabilizer
// row a random measurement collapses); after that, shots cost O(fault sites
// + measurements) instead of O(instructions × tableau words).
//
// Frames are stored as bit-planes over shots: fx[q] and fz[q] are 64-bit
// words whose bit i is shot-lane i's X/Z frame component on tableau qubit q,
// so a batch advances 64 shots at once and every Clifford gate is one or two
// whole-word XOR/swaps per touched qubit.
//
// The engine is not merely distribution-equivalent to the tableau engines —
// it is bit-identical per (seed, shot), which is what lets it slot under the
// pinned determinism goldens. Three streams line up exactly:
//
//   - Measurement coins. In a tableau run, row content (and therefore which
//     measurements are random) is a pure function of the instruction stream:
//     Pauli faults and conditional Paulis touch only sign planes. The k-th
//     random measurement of any shot draws the k-th Intn(2) coin, which is
//     bit 33 of the SplitMix64 output of the engine's shot-seeded source.
//     Each lane keeps that source's state and draws the same coins.
//   - Collapse direction. When a lane's coin disagrees with what the
//     reference frame would make that lane read, the recorded collapse row D
//     (a pre-measurement stabilizer anticommuting with the measured
//     operator) is multiplied into the lane's frame: Π_c F = F Π_{c⊕f} and
//     Π_{1−r}|ψ⟩ ∝ D Π_r|ψ⟩ convert between the two collapse branches.
//   - Fault firings. Each lane keeps the shot's dedicated fault stream and
//     noise.SampleSlotBatch draws exactly one uniform per fault site in
//     schedule order, firing the very faults noise.Schedule.RunShot fires.
package frame

import (
	"fmt"
	"math/bits"

	"tiscc/internal/noise"
	"tiscc/internal/orqcs"
	"tiscc/internal/pauli"
	"tiscc/internal/tableau"
	"tiscc/internal/telemetry"
)

// golden is the SplitMix64 increment (must match orqcs.shotSource).
const golden = 0x9E3779B97F4A7C15

// splitmix64 is the SplitMix64 output function, duplicated from orqcs so the
// coin lanes replay the engine's rand source exactly (differential tests pin
// the equivalence).
func splitmix64(x uint64) uint64 {
	x += golden
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// refSeed seeds the reference shot. Any value works: the batch runner's
// collapse masks absorb every difference between the reference coins and a
// lane's coins, so records never depend on this choice (a property test
// pins that too).
const refSeed int64 = 0x7153CC

// site is one qubit of a collapse row's support with its X/Z bits.
type site struct {
	q    int32
	x, z bool
}

// event is one measurement the program performs — an explicit Measure_Z or
// the implicit Z measurement inside a Prepare_Z reset — as observed on the
// reference shot.
type event struct {
	rec    int32 // record id (virtual ids for resets)
	slot   int32 // outcome-word index: rec for explicit records, after them for resets
	q      int32 // measured qubit
	det    bool  // outcome forced by the state (shot-invariant property)
	ref    bool  // reference outcome; for random events the reference coin
	reset  bool  // part of a Prepare_Z: a conditional X follows
	d0, d1 int32 // random events: collapse-row support is sim.collapse[d0:d1]
}

// Sim is a compiled frame sampler: one program (optionally with a compiled
// fault schedule), one reference trace. A Sim is immutable after New and may
// be shared by any number of concurrent Batches.
type Sim struct {
	prog     *orqcs.Program
	sched    *noise.Schedule // nil ⇒ noiseless sampling
	events   []event
	nrec     int    // explicit record slots [0, nrec); reset slots follow
	nslot    int    // outcome words per batch
	collapse []site // concatenated collapse-row supports
	tb       tableau.State
	met      *telemetry.Set // per-batch sampler shards (orqcs.SamplerSchema)
}

// New compiles a frame sampler for prog, sampling faults from sched (nil for
// noiseless shots). The program must be Clifford: T-gate programs need the
// tableau engines' quasi-probability branches and are rejected here so
// callers can fall back.
func New(prog *orqcs.Program, sched *noise.Schedule) (*Sim, error) {
	return newSim(prog, sched, refSeed)
}

// newSim is New with an explicit reference seed (tests pin that the choice
// is immaterial).
func newSim(prog *orqcs.Program, sched *noise.Schedule, seed int64) (*Sim, error) {
	if !prog.Clifford() {
		return nil, fmt.Errorf("frame: program has %d T gates; Pauli-frame sampling needs a Clifford program", prog.NumTGates())
	}
	if sched != nil && sched.Program() != prog {
		return nil, fmt.Errorf("frame: schedule compiled against a different program")
	}
	s := &Sim{prog: prog, sched: sched, nrec: prog.NumRecords(), met: telemetry.NewSet(orqcs.SamplerSchema)}
	s.nslot = s.nrec
	e := orqcs.NewFromProgram(prog)
	e.BeginShot(seed)
	tb, ok := e.Tableau().(*tableau.Sliced)
	if !ok {
		return nil, fmt.Errorf("frame: reference engine is not bit-sliced")
	}
	instrs := prog.Instructions()
	for i := range instrs {
		in := &instrs[i]
		switch in.Op {
		case orqcs.OpMeasureZ:
			if in.Rec < 0 || int(in.Rec) >= s.nrec {
				return nil, fmt.Errorf("frame: record id %d outside [0, %d)", in.Rec, s.nrec)
			}
			s.addEvent(tb, int(in.Q1), in.Rec, in.Rec, false)
		case orqcs.OpPrepareZ:
			// Replicate tableau Reset step by step so the event is observable:
			// virtual-id allocation, Z measurement, conditional X.
			s.addEvent(tb, int(in.Q1), tb.VirtualID(), int32(s.nslot), true)
			s.nslot++
		default:
			e.Exec(in)
		}
	}
	s.tb = tb
	return s, nil
}

// addEvent performs one reference measurement and records its trace.
func (s *Sim) addEvent(tb *tableau.Sliced, q int, rec, slot int32, reset bool) {
	o := tb.MeasureZ(q, rec)
	bit := tb.Records()[rec]
	ev := event{rec: rec, slot: slot, q: int32(q), det: o.Deterministic, ref: bit, reset: reset}
	if !o.Deterministic {
		ev.d0 = int32(len(s.collapse))
		tb.LastCollapse(func(j int, x, z bool) {
			s.collapse = append(s.collapse, site{q: int32(j), x: x, z: z})
		})
		ev.d1 = int32(len(s.collapse))
	}
	s.events = append(s.events, ev)
	if reset && bit {
		tb.X(q)
	}
}

// Program returns the program the sampler was compiled for.
func (s *Sim) Program() *orqcs.Program { return s.prog }

// Schedule returns the fault schedule (nil for noiseless sampling).
func (s *Sim) Schedule() *noise.Schedule { return s.sched }

// Metrics merges the sampler counters of every batch created from this Sim
// (shots, batches, faults fired, measurement character, collapse
// multiplications — the same schema the tableau engines report, so counters
// are comparable across engines). Only call at quiescence: after the runs
// using this Sim's batches have returned.
func (s *Sim) Metrics() *telemetry.Snapshot { return s.met.Snapshot() }

// Op is one Pauli operator resolved against the sampler's reference shot,
// ready for per-shot expectation readout.
type Op struct {
	ref    float64 // reference-shot expectation: +1, −1 or 0
	xs, zs []int32 // qubits where the operator has an X / Z component
}

// CompileOp resolves a site-addressed Pauli operator for per-shot evaluation:
// a frame F maps the reference expectation r to ±r by whether F anticommutes
// with the operator, so readout is a handful of word XORs per batch.
func (s *Sim) CompileOp(op orqcs.SitePauli) (*Op, error) {
	ps, err := s.prog.PauliFor(op)
	if err != nil {
		return nil, err
	}
	return s.compilePauli(ps), nil
}

func (s *Sim) compilePauli(ps *pauli.String) *Op {
	o := &Op{ref: s.tb.ExpectationValue(ps)}
	for j := 0; j < s.prog.NumQubits(); j++ {
		// Anticommutation bookkeeping: the operator's X component meets the
		// frame's Z plane and vice versa.
		if ps.XBits.Get(j) {
			o.xs = append(o.xs, int32(j))
		}
		if ps.ZBits.Get(j) {
			o.zs = append(o.zs, int32(j))
		}
	}
	return o
}

// Conjugate applies unitary Clifford instruction in to the frame bit-planes
// fx, fz (bit i of fx[q] / fz[q] is lane i's X / Z component on qubit q),
// tracking each lane's Pauli modulo phase. It reports false for
// instructions that are not unitary Cliffords — measurements, preparations
// and non-Clifford gates — leaving the planes untouched. It is the one
// Pauli-propagation kernel: the batch sampler and the decoder's
// detector-error-model sweep both advance their frames through it. Small
// enough to inline into their loops.
func Conjugate(in *orqcs.Instr, fx, fz []uint64) bool {
	q := in.Q1
	switch in.Op {
	case orqcs.OpX, orqcs.OpY, orqcs.OpZ:
		// Paulis commute with the frame up to phase: no-op.
	case orqcs.OpSqrtX, orqcs.OpSqrtXDg:
		// Z → ±Y: the Z bit induces an X bit.
		fx[q] ^= fz[q]
	case orqcs.OpSqrtY, orqcs.OpSqrtYDg:
		// X ↔ ±Z: swap the bits.
		fx[q], fz[q] = fz[q], fx[q]
	case orqcs.OpS, orqcs.OpSdg:
		// X → ±Y: the X bit induces a Z bit.
		fz[q] ^= fx[q]
	case orqcs.OpZZ:
		// X content on exactly one operand flips both Z bits (the fused-row
		// update of tableau.ZZ).
		one := fx[q] ^ fx[in.Q2]
		fz[q] ^= one
		fz[in.Q2] ^= one
	default:
		return false
	}
	return true
}

// Batch holds the mutable per-worker state of up to 64 concurrent shot
// lanes. Batches are not safe for concurrent use; create one per worker.
type Batch struct {
	sim    *Sim
	fx, fz []uint64 // frame bit-planes, one word (64 lanes) per qubit
	out    []uint64 // per-slot actual-outcome words: records, then resets
	coins  []uint64 // per-lane measurement-coin stream states
	fsts   []uint64 // per-lane fault stream states (noisy sims)
	p      noise.Planes
	recs   map[int32]bool   // Records' table, allocated on first use
	tel    *telemetry.Shard // single-owner sampler metrics (never nil)
}

// NewBatch allocates a reusable batch for the sampler.
func (s *Sim) NewBatch() *Batch {
	b := &Batch{
		sim:   s,
		fx:    make([]uint64, s.prog.NumQubits()),
		fz:    make([]uint64, s.prog.NumQubits()),
		out:   make([]uint64, s.nslot),
		coins: make([]uint64, 64),
		tel:   s.met.NewShard(),
	}
	// The record plane is the record prefix of the outcome words: the
	// sampler writes it in place and hands it on without copying.
	b.p.Words = b.out[:s.nrec]
	if s.sched != nil {
		b.fsts = make([]uint64, 64)
	}
	return b
}

// Run samples shot lanes for the global shot indices [first, first+count),
// count ≤ 64, each lane seeded with orqcs.ShotSeed(seed, index) — the same
// per-shot derivation every tableau multi-shot runner uses, so batch
// boundaries and worker counts can never shift a shot's outcome. After Run,
// outcome and frame words are valid until the next Run. Zero allocations.
//
//tiscc:hotpath
func (b *Batch) Run(first, count int, seed int64) {
	if count < 1 || count > 64 {
		panic("frame: batch size must be 1..64")
	}
	s := b.sim
	b.p.First, b.p.N = first, count
	b.p.Lanes = ^uint64(0) >> uint(64-count)
	clear(b.fx)
	clear(b.fz)
	for i := 0; i < count; i++ {
		ss := orqcs.ShotSeed(seed, first+i)
		b.coins[i] = uint64(ss)
		if s.sched != nil {
			b.fsts[i] = noise.FaultStreamState(ss)
		}
	}
	b.tel.Add(orqcs.CtrShots, uint64(count))
	b.tel.Inc(orqcs.CtrBatches)
	fired := 0
	instrs := s.prog.Instructions()
	evi := 0
	for i := range instrs {
		if s.sched != nil {
			fired += s.sched.SampleSlotBatch(i, b.fsts[:count], b.fx, b.fz)
		}
		in := &instrs[i]
		switch {
		case in.Op == orqcs.OpMeasureZ || in.Op == orqcs.OpPrepareZ:
			b.measure(evi)
			evi++
		case !Conjugate(in, b.fx, b.fz):
			panic("frame: non-Clifford opcode survived New")
		}
	}
	if s.sched != nil {
		fired += s.sched.SampleSlotBatch(len(instrs), b.fsts[:count], b.fx, b.fz)
	}
	b.tel.Add(orqcs.CtrFaultsFired, uint64(fired))
	b.tel.Observe(orqcs.HistFaultsPerBatch, uint64(fired))
}

// measure advances every lane through measurement event evi.
func (b *Batch) measure(evi int) {
	s := b.sim
	ev := &s.events[evi]
	q := ev.q
	if ev.det {
		if !ev.reset {
			b.tel.Add(orqcs.CtrMeasDet, uint64(b.p.N))
		}
		// A frame X on q flips the forced outcome; nothing else can.
		w := b.fx[q]
		if ev.ref {
			w = ^w
		}
		b.out[ev.slot] = w
	} else {
		if !ev.reset {
			b.tel.Add(orqcs.CtrMeasRandom, uint64(b.p.N))
		}
		// Fresh per-lane coins: bit 33 of the SplitMix64 output is exactly
		// the engine rand source's Intn(2) draw.
		var c uint64
		for i := 0; i < b.p.N; i++ {
			c |= (splitmix64(b.coins[i]) >> 33 & 1) << uint(i)
			b.coins[i] += golden
		}
		b.out[ev.slot] = c
		// Lanes whose coin disagrees with what their frame would read from
		// the reference collapse branch (ref coin ⊕ frame-X on q) switch
		// branches: multiply the recorded collapse row into their frames.
		mask := c ^ b.fx[q]
		if ev.ref {
			mask = ^mask
		}
		mask &= b.p.Lanes
		if mask != 0 {
			b.tel.Add(orqcs.CtrCollapseMults, uint64(bits.OnesCount64(mask)))
			for _, st := range s.collapse[ev.d0:ev.d1] {
				if st.x {
					b.fx[st.q] ^= mask
				}
				if st.z {
					b.fz[st.q] ^= mask
				}
			}
		}
	}
	if ev.reset {
		b.tel.Add(orqcs.CtrResets, uint64(b.p.N))
		// The conditional X cancels the frame's X component exactly (both
		// the lane and the reference end in |0⟩); the Z component is a
		// global phase on a Z eigenstate. Frames are canonical: cleared.
		b.fx[q] = 0
		b.fz[q] = 0
	}
}

// Planes returns the batch's record plane: valid after Run, until the next
// Run. Its words are the batch's own outcome words, not a copy.
func (b *Batch) Planes() *noise.Planes { return &b.p }

// Records fills and returns the batch's reusable record table with lane
// i's shot: bit-identical to tableau Engine.Records() for the same shot
// seed, virtual reset records included. It is a per-lane helper for
// comparisons against the tableau engines; the estimator reads Planes. The
// map is valid until the next Records or Run call.
func (b *Batch) Records(lane int) map[int32]bool {
	if b.recs == nil {
		b.recs = make(map[int32]bool, len(b.sim.events))
	}
	clear(b.recs)
	for i := range b.sim.events {
		ev := &b.sim.events[i]
		b.recs[ev.rec] = b.out[ev.slot]>>uint(lane)&1 == 1
	}
	return b.recs
}

// FlipWord returns the word whose bit i tells whether lane i's frame
// anticommutes with the compiled operator — i.e. flips its reference
// expectation.
func (b *Batch) FlipWord(o *Op) uint64 {
	var w uint64
	for _, j := range o.xs {
		w ^= b.fz[j]
	}
	for _, j := range o.zs {
		w ^= b.fx[j]
	}
	return w
}

// Value returns lane i's expectation of the compiled operator, equal to the
// tableau engine's post-shot ExpectationValue for the same shot seed.
func (b *Batch) Value(o *Op, lane int) float64 {
	if o.ref == 0 {
		return 0
	}
	if b.FlipWord(o)>>uint(lane)&1 == 1 {
		return -o.ref
	}
	return o.ref
}
