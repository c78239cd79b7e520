// Package frame implements a batch Pauli-frame sampler over compiled
// programs: the Stim-style observation that under purely Pauli (stochastic
// Clifford-frame) noise, a noisy shot differs from a fixed noiseless
// reference shot only by a Pauli operator — the frame — that faults inject
// and Clifford gates merely conjugate. The program's one noiseless
// reference trace (orqcs.Program.Reference: a shot through the exact
// tableau engine, run once per program and shared with experiment set-up)
// records everything shot-invariant (each measurement's deterministic/random
// character, its reference outcome, and the stabilizer row a random
// measurement collapses); after that, shots cost O(fault sites +
// measurements) instead of O(instructions × tableau words).
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
//   - Fault firings. The batch hands its lanes' shot seeds to
//     noise.Schedule.FiredBatch in one call. It lists, per lane, the very
//     firings noise.Schedule.RunShot applies, packed as
//     site<<32 | lane<<4 | branch and ascending by site, and the batch XORs
//     each firing into its lane's frame as the instruction walk reaches the
//     site's slot.
//
// The instruction walk (Batch.Run) produces records and operator values,
// and they serve only EstimateMany, experiment set-up (detector and
// outcome reference checks) and the record-level oracles. No logical-error
// estimate reads records: its batches come from Batch.Draw — lane seeds,
// then FiredBatch — and never walk the program (SampleFired), and the
// estimator turns their firings into outcome and detector flips through a
// fault-effect table (noise.Effects).
package frame

import (
	"fmt"
	"math/bits"

	"tiscc/internal/noise"
	"tiscc/internal/orqcs"
	"tiscc/internal/pauli"
	"tiscc/internal/telemetry"
)

// Sim is a compiled frame sampler: one program (optionally with a compiled
// fault schedule) and the program's shared reference trace. A Sim is
// immutable after New and may be shared by any number of concurrent Batches.
type Sim struct {
	prog  *orqcs.Program
	sched *noise.Schedule // nil ⇒ noiseless sampling
	ref   *orqcs.Reference
	met   *telemetry.Set // per-batch sampler shards (orqcs.SamplerSchema)

	// Per-shot measurement event counts of the program: deterministic and
	// random measurements (resets excluded) and resets. A batch counts
	// them × lanes, whether or not it walks the program.
	measDet, measRandom, resets uint64
}

// New compiles a frame sampler for prog, sampling faults from sched (nil for
// noiseless shots). The program must be Clifford: a T-gate program has no
// noiseless reference trace, and its quasi-probability branches are the
// tableau engines' to sample, so it is rejected. The reference shot runs
// once per program, on the first New or other Program.Reference call; later
// samplers reuse it.
func New(prog *orqcs.Program, sched *noise.Schedule) (*Sim, error) {
	ref, err := prog.Reference()
	if err != nil {
		return nil, fmt.Errorf("frame: %w", err)
	}
	return newSim(prog, sched, ref)
}

// newSim is New on a given reference trace (tests pin that the trace's
// seed is immaterial).
func newSim(prog *orqcs.Program, sched *noise.Schedule, ref *orqcs.Reference) (*Sim, error) {
	if sched != nil && sched.Program() != prog {
		return nil, fmt.Errorf("frame: schedule compiled against a different program")
	}
	s := &Sim{prog: prog, sched: sched, ref: ref, met: telemetry.NewSet(orqcs.SamplerSchema)}
	for i := range ref.Events {
		switch ev := &ref.Events[i]; {
		case ev.Reset:
			s.resets++
		case ev.Det:
			s.measDet++
		default:
			s.measRandom++
		}
	}
	return s, nil
}

// Schedule returns the fault schedule (nil for noiseless sampling).
func (s *Sim) Schedule() *noise.Schedule { return s.sched }

// Metrics merges the sampler counters of every batch created from this Sim
// (shots, batches, faults fired, measurement character, collapse
// multiplications — the same schema the tableau engines report, so counters
// are comparable across engines). Every batch counts shots, batches, faults
// fired and the measurement and reset events; collapse multiplications
// happen only in the instruction walk (Run), so fire-only batches (Draw)
// add none. Only call at quiescence: after the runs using this Sim's
// batches have returned.
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
	o := &Op{ref: s.ref.ExpectationValue(ps)}
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

// Batch holds the mutable per-worker state of up to 64 concurrent shot
// lanes. Batches are not safe for concurrent use; create one per worker.
type Batch struct {
	sim    *Sim
	fx, fz []uint64 // frame bit-planes, one word (64 lanes) per qubit
	out    []uint64 // per-slot actual-outcome words: records, then resets
	coins  []uint64 // per-lane measurement-coin stream states
	fired  []uint64 // the batch's packed fault firings, ascending (see noise.Schedule.FiredBatch)
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
		out:   make([]uint64, s.ref.NumSlots),
		coins: make([]uint64, 64),
		tel:   s.met.NewShard(),
	}
	return b
}

// Draw draws the fault firings of shot lanes for the global shot indices
// [first, first+count), count ≤ 64, each lane seeded with
// orqcs.ShotSeed(seed, index) — the same per-shot derivation every tableau
// multi-shot runner uses, so batch boundaries and worker counts can never
// shift a shot's outcome. It walks no instruction: the planes carry the
// lanes and Fired, and no record words. Zero allocations.
//
//tiscc:hotpath
func (b *Batch) Draw(first, count int, seed int64) {
	if count < 1 || count > 64 {
		panic("frame: batch size must be 1..64")
	}
	s := b.sim
	b.p.First, b.p.N = first, count
	b.p.Lanes = ^uint64(0) >> uint(64-count)
	for i := 0; i < count; i++ {
		b.coins[i] = uint64(orqcs.ShotSeed(seed, first+i))
	}
	b.fired = b.fired[:0]
	if s.sched != nil {
		// Each coin stream starts at its lane's shot seed.
		b.fired = s.sched.FiredBatch(b.coins[:count], b.fired)
	}
	b.p.Fired = b.fired
	n := uint64(count)
	b.tel.Add(orqcs.CtrShots, n)
	b.tel.Inc(orqcs.CtrBatches)
	b.tel.Add(orqcs.CtrFaultsFired, uint64(len(b.fired)))
	b.tel.Observe(orqcs.HistFaultsPerBatch, uint64(len(b.fired)))
	b.tel.Add(orqcs.CtrMeasDet, s.measDet*n)
	b.tel.Add(orqcs.CtrMeasRandom, s.measRandom*n)
	b.tel.Add(orqcs.CtrResets, s.resets*n)
}

// Run samples shot lanes as Draw does and walks the program: the frames
// take each firing at its slot and every measurement writes its outcome
// word. After Run, outcome words (RecordWords, Records) and frame words are
// valid until the next Run or Draw. Zero allocations.
//
//tiscc:hotpath
func (b *Batch) Run(first, count int, seed int64) {
	b.Draw(first, count, seed)
	s := b.sim
	clear(b.fx)
	clear(b.fz)
	instrs := s.prog.Instructions()
	evi, fi := 0, 0 // next measurement event, next firing
	for i := range instrs {
		if fi < len(b.fired) {
			fi = b.applyFired(fi, s.sched.SlotEnd(i))
		}
		in := &instrs[i]
		switch {
		case in.Op == orqcs.OpMeasureZ || in.Op == orqcs.OpPrepareZ:
			b.measure(evi)
			evi++
		case !orqcs.Conjugate(in, b.fx, b.fz):
			panic("frame: non-Clifford opcode survived New")
		}
	}
	if fi < len(b.fired) {
		b.applyFired(fi, s.sched.SlotEnd(len(instrs)))
	}
}

// applyFired XORs the batch's firings from index fi up to the first at a
// site not below end into their lanes' frames, and returns that index.
func (b *Batch) applyFired(fi int, end int32) int {
	for ; fi < len(b.fired); fi++ {
		w := b.fired[fi]
		site := noise.FiredSite(w)
		if site >= int(end) {
			break
		}
		f := b.sim.sched.SiteFault(site)
		_, x1, z1, x2, z2 := f.Branch(noise.FiredBranch(w))
		m := uint64(1) << noise.FiredLane(w)
		if x1 {
			b.fx[f.Q1] ^= m
		}
		if z1 {
			b.fz[f.Q1] ^= m
		}
		if x2 {
			b.fx[f.Q2] ^= m
		}
		if z2 {
			b.fz[f.Q2] ^= m
		}
	}
	return fi
}

// measure advances every lane through measurement event evi.
func (b *Batch) measure(evi int) {
	s := b.sim
	ev := &s.ref.Events[evi]
	q := ev.Q
	if ev.Det {
		// A frame X on q flips the forced outcome; nothing else can.
		w := b.fx[q]
		if ev.Ref {
			w = ^w
		}
		b.out[ev.Slot] = w
	} else {
		// Fresh per-lane coins: bit 33 of the SplitMix64 output is exactly
		// the engine rand source's Intn(2) draw.
		var c uint64
		for i := 0; i < b.p.N; i++ {
			c |= (orqcs.SplitMix64(b.coins[i]) >> 33 & 1) << uint(i)
			b.coins[i] += orqcs.SplitMix64Gamma
		}
		b.out[ev.Slot] = c
		// Lanes whose coin disagrees with what their frame would read from
		// the reference collapse branch (ref coin ⊕ frame-X on q) switch
		// branches: multiply the recorded collapse row into their frames.
		mask := c ^ b.fx[q]
		if ev.Ref {
			mask = ^mask
		}
		mask &= b.p.Lanes
		if mask != 0 {
			b.tel.Add(orqcs.CtrCollapseMults, uint64(bits.OnesCount64(mask)))
			for _, st := range s.ref.Collapse[ev.D0:ev.D1] {
				if st.X {
					b.fx[st.Q] ^= mask
				}
				if st.Z {
					b.fz[st.Q] ^= mask
				}
			}
		}
	}
	if ev.Reset {
		// The conditional X cancels the frame's X component exactly (both
		// the lane and the reference end in |0⟩); the Z component is a
		// global phase on a Z eigenstate. Frames are canonical: cleared.
		b.fx[q] = 0
		b.fz[q] = 0
	}
}

// Planes returns the batch's planes — its lanes and fault firings — valid
// after Run or Draw, until the next one.
func (b *Batch) Planes() *noise.Planes { return &b.p }

// RecordWords returns the record words of the last Run: word id holds
// record id's outcome for every lane, bit i for lane i, one word per
// record id of the program (Program.NumRecords). They are the record
// prefix of the batch's own outcome words, not a copy, valid until the
// next Run or Draw; bits outside the planes' Lanes are unspecified.
func (b *Batch) RecordWords() []uint64 { return b.out[:len(b.sim.ref.Words)] }

// Records fills and returns the batch's reusable record table with lane
// i's shot: bit-identical to tableau Engine.Records() for the same shot
// seed, virtual reset records included. It is a per-lane helper for
// comparisons against the tableau engines; no estimate reads records. The
// map is valid until the next Records or Run call.
func (b *Batch) Records(lane int) map[int32]bool {
	if b.recs == nil {
		b.recs = make(map[int32]bool, len(b.sim.ref.Events))
	}
	clear(b.recs)
	for i := range b.sim.ref.Events {
		ev := &b.sim.ref.Events[i]
		b.recs[ev.Rec] = b.out[ev.Slot]>>uint(lane)&1 == 1
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
