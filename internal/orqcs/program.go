// Compile-once/run-many support: a Program is the lowered form of a circuit
// in which all ion movement and site bookkeeping has been resolved ahead of
// time, so that the per-shot inner loop is pure integer and bit work — no
// map lookups, no sorting, no allocation. This mirrors the compile-then-
// execute split of resource-estimation pipelines: the Monte-Carlo
// verification workflow of TISCC Sec 4 runs hundreds of shots of the same
// circuit, and only the stabilizer updates differ between shots.
package orqcs

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"tiscc/internal/circuit"
	"tiscc/internal/grid"
	"tiscc/internal/pauli"
)

// OpCode names one lowered per-shot operation. Movement and well
// reconfiguration never appear: they are resolved at compile time.
type OpCode uint8

// Lowered operation set.
const (
	OpPrepareZ OpCode = iota
	OpMeasureZ
	OpX
	OpSqrtX
	OpSqrtXDg
	OpY
	OpSqrtY
	OpSqrtYDg
	OpZ
	OpS
	OpSdg
	OpT   // quasi-probability sample of the Z_{π/8} channel
	OpTdg // quasi-probability sample of the Z_{−π/8} channel
	OpZZ
)

// Instr is one lowered instruction, addressed by tableau qubit index.
type Instr struct {
	Q1, Q2 int32 // qubit indices (Q2 = -1 for one-qubit operations)
	Rec    int32 // record index for OpMeasureZ, -1 otherwise
	Op     OpCode
}

// Gap describes the schedule gap preceding one instruction: for each operand
// qubit, the time its ion spent resting since its previous hardware event and
// the number of transport steps (Move events, junction hops included) it
// underwent since its previous lowered instruction. Gaps are computed once at
// lowering time from the circuit's event schedule; the noise subsystem
// derives idle-dephasing and transport-error probabilities from them.
type Gap struct {
	Idle1, Idle2   int64 // resting ns before this instruction (Idle2: ZZ only)
	Moves1, Moves2 int32 // transport steps since the previous instruction
}

// FoldedPrep records a Prepare_Z that was constant-folded away at lowering
// (the qubit's first touch: a fresh tableau qubit is already |0⟩). Slot is
// the instruction-stream position the preparation conceptually precedes.
// The noise subsystem uses these to place preparation-error faults that the
// folding would otherwise silently remove — in surface-code circuits nearly
// every preparation is first-touch.
type FoldedPrep struct {
	Slot int32 // the folded prep precedes instruction index Slot
	Q    int32
}

// Program is the compiled, immutable form of a circuit: safe for concurrent
// use by any number of engines.
type Program struct {
	n       int
	instrs  []Instr
	gaps    []Gap             // parallel to instrs
	folded  []FoldedPrep      // constant-folded first-touch preparations
	finalAt map[grid.Site]int // site → qubit after the last movement
	numT    int

	// Lowering/peephole provenance, reported by Metrics: circuit events in,
	// and instructions removed by each optimization pass (cumulative across
	// chained passes).
	srcEvents    int
	fusedRemoved int
	elimRemoved  int

	// The noiseless reference trace, computed on first use (Reference).
	refOnce sync.Once
	ref     *Reference
	refErr  error
}

// Compile lowers a circuit into a Program. It walks the events once in time
// order, tracking ion movement: every event is resolved to the tableau qubit
// index of the ion resting at its site at that point in time, and the final
// site-occupancy map is kept for end-of-circuit expectation queries.
func Compile(c *circuit.Circuit) (*Program, error) {
	p := &Program{finalAt: map[grid.Site]int{}, srcEvents: len(c.Events)}
	// touched[q] reports whether any state-changing instruction has been
	// emitted for qubit q. Every birth yields a fresh tableau qubit in |0⟩,
	// so a first-touch Prepare_Z is constant-folded away at compile time —
	// in surface-code circuits that is nearly every preparation event.
	var touched []bool
	// Schedule-gap accumulators, indexed by qubit: completion time of the
	// qubit's last event (-1 before birth), resting ns and transport steps
	// accumulated since its previous lowered instruction.
	var (
		freeAt []int64
		restNs []int64
		moveCt []int32
	)
	// accrue charges the rest interval [freeAt, e.Start) to the qubit and
	// marks it busy through the event's end.
	accrue := func(q int, e circuit.Event) {
		if freeAt[q] >= 0 && e.Start > freeAt[q] {
			restNs[q] += e.Start - freeAt[q]
		}
		if end := e.End(); end > freeAt[q] {
			freeAt[q] = end
		}
	}
	// take drains the accumulators into the Gap entry of an instruction.
	take := func(q int) (int64, int32) {
		idle, mv := restNs[q], moveCt[q]
		restNs[q], moveCt[q] = 0, 0
		return idle, mv
	}
	// Record ids index the samplers' record words directly, so they must
	// be dense: every id in [0, number of measurements). Every event but a
	// transport or well operation lowers to at most one instruction, which
	// sizes the instruction and gap tables.
	nMeas, nOps := 0, 0
	for i := range c.Events {
		switch c.Events[i].Gate {
		case circuit.Move, circuit.MergeWells, circuit.SplitWells, circuit.Cool:
			continue
		case circuit.MeasureZ:
			nMeas++
		}
		nOps++
	}
	p.instrs = make([]Instr, 0, nOps)
	p.gaps = make([]Gap, 0, nOps)
	// p.finalAt holds the qubit of the ion resting at each occupied site as
	// the events are walked in time order, so after the walk it is the final
	// occupancy. visited marks every site that has hosted an ion.
	visited := map[grid.Site]bool{}
	at := func(s grid.Site, allowReload bool) (int, error) {
		if q, ok := p.finalAt[s]; ok {
			return q, nil
		}
		if visited[s] && !allowReload {
			return -1, fmt.Errorf("orqcs: event on vacated site %v", s)
		}
		// A new ion is a fresh tableau qubit. Prepare_Z may also (re)load
		// one at a vacated site (seam qubits and relocated measure qubits
		// are loaded mid-circuit).
		q := p.n
		p.n++
		p.finalAt[s], visited[s] = q, true
		touched = append(touched, false)
		freeAt = append(freeAt, -1)
		restNs = append(restNs, 0)
		moveCt = append(moveCt, 0)
		return q, nil
	}
	for _, e := range c.TimeOrdered() {
		q1, q2 := -1, -1
		var err error
		switch e.Gate {
		case circuit.Move:
			if q1, err = at(e.S1, false); err != nil {
				return nil, err
			}
			if _, occ := p.finalAt[e.S2]; occ {
				return nil, fmt.Errorf("orqcs: move into occupied site %v", e.S2)
			}
			delete(p.finalAt, e.S1)
			p.finalAt[e.S2], visited[e.S2] = q1, true
			accrue(q1, e)
			moveCt[q1]++
			continue
		case circuit.ZZ, circuit.MergeWells, circuit.SplitWells, circuit.Cool:
			if q1, err = at(e.S1, false); err != nil {
				return nil, err
			}
			if q2, err = at(e.S2, false); err != nil {
				return nil, err
			}
		default:
			if q1, err = at(e.S1, e.Gate == circuit.PrepareZ); err != nil {
				return nil, err
			}
		}
		in := Instr{Q1: int32(q1), Q2: -1, Rec: -1}
		var g Gap
		accrue(q1, e)
		if q2 >= 0 {
			accrue(q2, e)
		}
		switch e.Gate {
		case circuit.MergeWells, circuit.SplitWells, circuit.Cool:
			// Trivial on the computational state.
			continue
		case circuit.PrepareZ:
			if !touched[q1] {
				touched[q1] = true
				// Discard idle/transport accumulated before the folded
				// prep: preparation erases the state it would have
				// dephased, exactly as faults preceding a non-folded
				// OpPrepareZ are wiped by its Reset.
				take(q1)
				p.folded = append(p.folded, FoldedPrep{Slot: int32(len(p.instrs)), Q: int32(q1)})
				continue // fresh qubit is already |0⟩
			}
			in.Op = OpPrepareZ
		case circuit.MeasureZ:
			if e.Record < 0 || int(e.Record) >= nMeas {
				return nil, fmt.Errorf("orqcs: measurement record id %d outside [0, %d): record ids must be dense", e.Record, nMeas)
			}
			in.Op, in.Rec = OpMeasureZ, e.Record
		case circuit.XPi2:
			in.Op = OpX
		case circuit.XPi4:
			in.Op = OpSqrtX
		case circuit.XmPi4:
			in.Op = OpSqrtXDg
		case circuit.YPi2:
			in.Op = OpY
		case circuit.YPi4:
			in.Op = OpSqrtY
		case circuit.YmPi4:
			in.Op = OpSqrtYDg
		case circuit.ZPi2:
			in.Op = OpZ
		case circuit.ZPi4:
			in.Op = OpS
		case circuit.ZmPi4:
			in.Op = OpSdg
		case circuit.ZPi8:
			in.Op = OpT
			p.numT++
		case circuit.ZmPi8:
			in.Op = OpTdg
			p.numT++
		case circuit.ZZ:
			in.Op, in.Q2 = OpZZ, int32(q2)
		default:
			return nil, fmt.Errorf("orqcs: unknown gate %q", e.Gate)
		}
		touched[q1] = true
		g.Idle1, g.Moves1 = take(q1)
		if q2 >= 0 {
			touched[q2] = true
			g.Idle2, g.Moves2 = take(q2)
		}
		p.instrs = append(p.instrs, in)
		p.gaps = append(p.gaps, g)
	}
	return p, nil
}

// NumQubits returns the number of tableau qubits the program addresses.
func (p *Program) NumQubits() int { return p.n }

// NumRecords returns one past the largest measurement record id: the
// number of record words a frame batch's run writes. Record ids are dense
// in [0, NumRecords) (Compile and DecodeProgram reject any id at or beyond
// the number of measurements), so an id indexes the words directly.
func (p *Program) NumRecords() int {
	n := 0
	for i := range p.instrs {
		if in := &p.instrs[i]; in.Op == OpMeasureZ && int(in.Rec) >= n {
			n = int(in.Rec) + 1
		}
	}
	return n
}

// NumInstrs returns the length of the lowered instruction stream.
func (p *Program) NumInstrs() int { return len(p.instrs) }

// Instructions exposes the lowered instruction stream. The returned slice is
// the program's backing storage and must be treated as read-only; it lets
// external executors (the noise subsystem's fault-injecting shot loop) step
// the program one instruction at a time via Engine.Exec.
func (p *Program) Instructions() []Instr { return p.instrs }

// Gap returns the schedule gap preceding instruction i (idle time and
// transport steps of the operand qubits since their previous instruction).
func (p *Program) Gap(i int) Gap { return p.gaps[i] }

// FoldedPreps exposes the first-touch preparations removed by constant
// folding (read-only), so noise models can still charge them SPAM errors.
func (p *Program) FoldedPreps() []FoldedPrep { return p.folded }

// Eliminate returns a copy of the program with dead code removed: any
// instruction that can affect neither a measurement record nor any of the
// requested end-of-circuit operators is dropped. Liveness is computed
// backwards over the instruction stream — measurements are roots, a ZZ with
// one live operand keeps both alive, and a Prepare_Z kills liveness (it
// overwrites the qubit's prior state). Every measurement, and therefore every
// record index, is preserved.
//
// Dropping instructions shortens the per-shot RNG draw sequence, so for a
// given seed the eliminated program's sampled outcomes differ from the
// original's; the sampled distribution is unchanged. Dead non-Clifford gates
// are removed too, which shrinks the quasi-probability overhead γ^(2·NumT) of
// estimates over the requested operators without biasing them.
func (p *Program) Eliminate(ops ...SitePauli) (*Program, error) {
	live := make([]bool, p.n)
	for _, op := range ops {
		// Sorted support: which missing site the error names must not
		// depend on map iteration order.
		for _, s := range op.Sites() {
			q, ok := p.finalAt[s]
			if !ok {
				return nil, fmt.Errorf("orqcs: no ion at site %v", s)
			}
			live[q] = true
		}
	}
	keep := make([]bool, len(p.instrs))
	kept := 0
	for i := len(p.instrs) - 1; i >= 0; i-- {
		in := &p.instrs[i]
		q1 := int(in.Q1)
		switch in.Op {
		case OpMeasureZ:
			keep[i] = true
			live[q1] = true
		case OpPrepareZ:
			if live[q1] {
				keep[i] = true
				live[q1] = false
			}
		case OpZZ:
			q2 := int(in.Q2)
			if live[q1] || live[q2] {
				keep[i] = true
				live[q1], live[q2] = true, true
			}
		default:
			keep[i] = live[q1]
		}
		if keep[i] {
			kept++
		}
	}
	out := &Program{
		n:       p.n,
		instrs:  make([]Instr, 0, kept),
		gaps:    make([]Gap, 0, kept),
		finalAt: p.finalAt, // immutable, shared

		srcEvents:    p.srcEvents,
		fusedRemoved: p.fusedRemoved,
		elimRemoved:  p.elimRemoved + (len(p.instrs) - kept),
	}
	// keptBefore[i] counts surviving instructions before original index i,
	// remapping folded-prep slots onto the filtered stream.
	keptBefore := make([]int32, len(p.instrs)+1)
	for i := range p.instrs {
		keptBefore[i+1] = keptBefore[i]
		if !keep[i] {
			continue
		}
		keptBefore[i+1]++
		out.instrs = append(out.instrs, p.instrs[i])
		out.gaps = append(out.gaps, p.gaps[i])
		if op := p.instrs[i].Op; op == OpT || op == OpTdg {
			out.numT++
		}
	}
	out.folded = make([]FoldedPrep, len(p.folded))
	for i, f := range p.folded {
		out.folded[i] = FoldedPrep{Slot: keptBefore[f.Slot], Q: f.Q}
	}
	return out, nil
}

// NumTGates returns the number of non-Clifford (±π/8) gates; the
// quasi-probability sampling overhead of an estimate is γ^(2·NumTGates).
func (p *Program) NumTGates() int { return p.numT }

// Clifford reports whether the program is free of non-Clifford gates (one
// shot then yields exact expectations).
func (p *Program) Clifford() bool { return p.numT == 0 }

// PauliFor builds the tableau-indexed Pauli string for a site-keyed
// operator, resolved against the program's final ion positions. The result
// is immutable under engine runs, so it can be built once and evaluated
// against every shot.
func (p *Program) PauliFor(op SitePauli) (*pauli.String, error) {
	ps := pauli.NewString(p.n)
	// Sorted support: which missing site the error names must not depend on
	// map iteration order.
	for _, s := range op.Sites() {
		q, ok := p.finalAt[s]
		if !ok {
			return nil, fmt.Errorf("orqcs: no ion at site %v", s)
		}
		ps.SetKind(q, op[s])
	}
	return ps, nil
}

// --- Deterministic per-shot seeding -----------------------------------------

// SplitMix64Gamma is the SplitMix64 stream increment: a stream in state x
// outputs SplitMix64(x) and moves to x + SplitMix64Gamma.
const SplitMix64Gamma = 0x9E3779B97F4A7C15

// SplitMix64 is the SplitMix64 output function (Steele, Lea & Flood 2014):
// the one generator behind shot seeds, the engine's measurement coins and
// the noise subsystem's fault draws. Small enough to inline into their
// loops.
func SplitMix64(x uint64) uint64 {
	x = SplitMix64Mix(x)
	return x ^ (x >> 31)
}

// SplitMix64Mix is SplitMix64 without its final xorshift: SplitMix64(x) is
// m ^ m>>31 for m = SplitMix64Mix(x), so m and the output share their top 31
// bits. The noise subsystem's draw kernel bounds most draws on m alone and
// finishes the output only for the rare ones that might fire.
func SplitMix64Mix(x uint64) uint64 {
	x += SplitMix64Gamma
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	return (x ^ (x >> 27)) * 0x94D049BB133111EB
}

// ShotSeed derives the RNG seed of one shot from a base seed. The derivation
// depends only on (base, shot), never on worker scheduling, so multi-shot
// runs are reproducible for any worker count.
func ShotSeed(base int64, shot int) int64 {
	return int64(SplitMix64(uint64(base) + SplitMix64Gamma*uint64(shot)))
}

// --- Multi-shot runners ------------------------------------------------------

// RunPool is the deterministic worker pool behind every multi-shot runner:
// it runs items [0, n) across workers goroutines (≤ 0 selects GOMAXPROCS),
// each owning one state built by newState (an engine, a 64-lane frame batch)
// and claiming items in index order from a shared atomic cursor. Callers
// derive every item's randomness from its index alone, so results never
// depend on the worker count. run may be called concurrently for distinct
// items; the first non-nil error stops the pool and is returned.
func RunPool[S any](n, workers int, newState func() S, run func(s S, i int) error) error {
	if n <= 0 {
		return nil
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers == 1 {
		s := newState()
		for i := 0; i < n; i++ {
			if err := run(s, i); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		next    atomic.Int64
		stop    atomic.Bool
		errOnce sync.Once
		firstEr error
		wg      sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := newState()
			for !stop.Load() {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := run(s, i); err != nil {
					errOnce.Do(func() { firstEr = err })
					stop.Store(true)
					return
				}
			}
		}()
	}
	wg.Wait()
	return firstEr
}

// ShotFunc executes one shot on an engine with the given derived shot seed.
// The noise subsystem supplies fault-injecting runners; nil means the plain
// noiseless Engine.RunShot.
type ShotFunc func(e *Engine, shotSeed int64)

// RunShots executes shots runs of the program across a worker pool, each
// through run — a noise schedule's fault-injecting shot loop, say — or,
// when run is nil, the noiseless Engine.RunShot. Each worker owns one
// reusable Engine (compiled state, preallocated tableau); shot i always
// runs with ShotSeed(seed, i), so results are independent of the worker
// count. workers ≤ 0 selects GOMAXPROCS.
//
// visit, if non-nil, is called after every completed shot with the engine
// that ran it. Calls happen concurrently from different workers (always for
// distinct shot indices), and the engine's state — records included — is
// only valid until that worker starts its next shot: copy anything that
// must outlive the call. A non-nil error from visit stops the run.
func RunShots(p *Program, run ShotFunc, shots int, seed int64, workers int, visit func(shot int, e *Engine) error) error {
	if run == nil {
		run = (*Engine).RunShot
	}
	return RunPool(shots, workers, func() *Engine { return NewFromProgram(p) }, func(e *Engine, i int) error {
		run(e, ShotSeed(seed, i))
		if visit == nil {
			return nil
		}
		return visit(i, e)
	})
}

// --- Ordered fold ------------------------------------------------------------

// Ordered folds per-item values in strict item order, whatever order the
// pool's workers finish them in. An entry covers a run of consecutive items
// (one shot, or one 64-shot batch); workers claim entries in index order
// and hold at most one each, so at most `workers` out-of-order entries are
// ever pending; they are buffered until the contiguous prefix catches up.
// The fold sequence — and so every float sum, error count and stopping
// decision — is therefore identical for any worker count. It is the one
// ordered fold behind the streaming statistics (Stats) and the
// logical-error estimator's early stopping and progress stream.
type Ordered[T any] struct {
	// Hold, when non-nil, copies a value that arrives ahead of its turn and
	// must be buffered (the caller may reuse the original once Add returns);
	// Release gets the copy back once it has been folded. Both run under the
	// fold's lock.
	Hold    func(T) T
	Release func(T)

	fold    func(first, n int, v T) (stop bool)
	mu      sync.Mutex
	next    int
	stopped bool
	pending map[int]pendingEntry[T]
}

// pendingEntry is one buffered entry: n items and their value.
type pendingEntry[T any] struct {
	n int
	v T
}

// NewOrdered returns an ordered fold calling fold once per entry, in item
// order from 0, with the entry's first item and item count. A fold that
// returns true stops the fold: that entry is the last one folded, and every
// later Add reports the stop.
func NewOrdered[T any](fold func(first, n int, v T) (stop bool)) *Ordered[T] {
	return &Ordered[T]{fold: fold, pending: map[int]pendingEntry[T]{}}
}

// Add hands over the value of the n ≥ 1 items [first, first+n) and reports
// whether the fold has stopped. Entries must tile the items from 0 upward:
// each must eventually arrive exactly once (unless the fold stops first).
func (o *Ordered[T]) Add(first, n int, v T) (stopped bool) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.stopped {
		return true
	}
	if first != o.next {
		if o.Hold != nil {
			v = o.Hold(v)
		}
		o.pending[first] = pendingEntry[T]{n: n, v: v}
		return false
	}
	o.stopped = o.fold(first, n, v)
	o.next += n
	for !o.stopped {
		b, ok := o.pending[o.next]
		if !ok {
			break
		}
		delete(o.pending, o.next)
		o.stopped = o.fold(o.next, b.n, b.v)
		o.next += b.n
		if o.Release != nil {
			o.Release(b.v)
		}
	}
	return o.stopped
}

// --- Streaming shot statistics ----------------------------------------------

// kahan is a Neumaier-compensated accumulator: adding values in a fixed
// order yields a bit-reproducible sum regardless of their magnitudes.
type kahan struct{ sum, c float64 }

func (k *kahan) add(x float64) {
	t := k.sum + x
	if math.Abs(k.sum) >= math.Abs(x) {
		k.c += (k.sum - t) + x
	} else {
		k.c += (x - t) + k.sum
	}
	k.sum = t
}

func (k *kahan) value() float64 { return k.sum + k.c }

// Stats folds per-shot operator values into running compensated sums in
// strict shot order (an Ordered fold), without materializing a per-shot
// slice: memory is O(workers), not O(shots). Any multi-shot executor — the
// tableau pool here, the Pauli-frame engine — that feeds the same per-shot
// values through Add gets means and standard errors bit-identical to
// EstimateMany's, for any worker count.
type Stats struct {
	ord        *Ordered[[]float64]
	free       [][]float64 // recycled pending buffers
	sum, sumSq []kahan
	count      int // shots folded
}

// NewStats returns a reduction over nOps per-shot values.
func NewStats(nOps int) *Stats {
	s := &Stats{sum: make([]kahan, nOps), sumSq: make([]kahan, nOps)}
	s.ord = NewOrdered(func(shot, _ int, vals []float64) bool {
		for j, x := range vals {
			s.sum[j].add(x)
			s.sumSq[j].add(x * x)
		}
		s.count = shot + 1
		return false
	})
	s.ord.Hold = func(vals []float64) []float64 {
		if n := len(s.free); n > 0 {
			buf := s.free[n-1]
			s.free = s.free[:n-1]
			copy(buf, vals)
			return buf
		}
		return append([]float64(nil), vals...)
	}
	s.ord.Release = func(buf []float64) { s.free = append(s.free, buf) }
	return s
}

// Add folds the values of one shot. Shots may arrive out of order (vals is
// copied if it must be buffered; callers may reuse it immediately), but every
// index from 0 upward must eventually arrive exactly once.
func (s *Stats) Add(shot int, vals []float64) { s.ord.Add(shot, 1, vals) }

// MeanStderr reduces operator j's running sums to (mean, standard error of
// the mean). Call it once every shot has been added.
func (s *Stats) MeanStderr(j int) (mean, stderr float64) {
	if s.count == 0 {
		return 0, 0
	}
	n := float64(s.count)
	sum, sumSq := s.sum[j].value(), s.sumSq[j].value()
	mean = sum / n
	if s.count > 1 {
		varr := (sumSq - sum*sum/n) / (n - 1)
		if varr < 0 {
			varr = 0
		}
		stderr = math.Sqrt(varr / n)
	}
	return mean, stderr
}

// Results reduces every operator's sums (see MeanStderr).
func (s *Stats) Results() (means, stderrs []float64) {
	means, stderrs = make([]float64, len(s.sum)), make([]float64, len(s.sum))
	for j := range means {
		means[j], stderrs[j] = s.MeanStderr(j)
	}
	return means, stderrs
}

// --- Expectation estimation -------------------------------------------------

// EstimateMany Monte-Carlo-estimates several Pauli operators over a compiled
// program in a single multi-shot pass, each shot run through run (nil: the
// noiseless Engine.RunShot, as in RunShots): every shot is simulated once
// and all operators are evaluated against its final state, so the per-shot
// simulation cost is paid once instead of once per operator. Operators are
// resolved to qubit indices once and every worker reuses its engine state
// across shots. Results are deterministic in (shots, seed) for every worker
// count — the streaming Kahan reduction folds values in shot order — and
// memory is independent of the shot count.
func EstimateMany(p *Program, run ShotFunc, ops []SitePauli, shots int, seed int64, workers int) (means, stderrs []float64, err error) {
	if shots <= 0 {
		return nil, nil, fmt.Errorf("orqcs: EstimateMany needs shots ≥ 1, got %d", shots)
	}
	if len(ops) == 0 {
		return nil, nil, fmt.Errorf("orqcs: no operators to estimate")
	}
	pss := make([]*pauli.String, len(ops))
	for j, op := range ops {
		if pss[j], err = p.PauliFor(op); err != nil {
			return nil, nil, err
		}
	}
	st := NewStats(len(ops))
	if err := RunShots(p, run, shots, seed, workers, func(i int, e *Engine) error {
		vals := e.scratch(len(ops))
		for j, ps := range pss {
			vals[j] = e.weight * e.tb.ExpectationValue(ps)
		}
		st.Add(i, vals)
		return nil
	}); err != nil {
		return nil, nil, err
	}
	means, stderrs = st.Results()
	return means, stderrs, nil
}
