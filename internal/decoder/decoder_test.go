package decoder

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"tiscc/internal/core"
	"tiscc/internal/frame"
	"tiscc/internal/hardware"
	"tiscc/internal/noise"
	"tiscc/internal/orqcs"
	"tiscc/internal/pauli"
	"tiscc/internal/verify"
)

func mustMemory(t testing.TB, d, rounds int, basis pauli.Kind) *verify.Memory {
	t.Helper()
	mem, err := verify.MemoryExperiment(d, rounds, basis)
	if err != nil {
		t.Fatal(err)
	}
	return mem
}

func mustDetectors(t testing.TB, mem *verify.Memory) *Detectors {
	t.Helper()
	det, err := Extract(mem)
	if err != nil {
		t.Fatal(err)
	}
	return det
}

// withFrame returns opt with the frame sampler of s as its record source.
func withFrame(t testing.TB, s *noise.Schedule, opt noise.Options) noise.Options {
	t.Helper()
	sim, err := frame.New(s.Program(), s)
	if err != nil {
		t.Fatal(err)
	}
	opt.Sampler = sim
	return opt
}

func mustGraph(t testing.TB, det *Detectors, s *noise.Schedule) *Graph {
	t.Helper()
	g, err := CompileGraph(det, s)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// demText returns the DEM text of s over det: the text Graph.WriteDEM
// writes from a fresh CompileGraph's graph.
func demText(t testing.TB, det *Detectors, s *noise.Schedule) string {
	t.Helper()
	var text strings.Builder
	if err := mustGraph(t, det, s).WriteDEM(&text, s); err != nil {
		t.Fatal(err)
	}
	return text.String()
}

// runWithPauli executes one noiseless shot with a single Pauli injected
// immediately before instruction slot — the differential-simulation oracle
// for fault symptoms.
func runWithPauli(e *orqcs.Engine, prog *orqcs.Program, seed int64, slot int, q1 int32, x1, z1 bool, q2 int32, x2, z2 bool) {
	e.BeginShot(seed)
	instrs := prog.Instructions()
	inject := func() {
		tb := e.Tableau()
		tb.ApplyPauliError(int(q1), x1, z1)
		if x2 || z2 {
			tb.ApplyPauliError(int(q2), x2, z2)
		}
	}
	for i := range instrs {
		if i == slot {
			inject()
		}
		e.Exec(&instrs[i])
	}
	if slot == len(instrs) {
		inject()
	}
}

// syndromeOf evaluates which detectors fire and the raw observable value.
func syndromeOf(d *Detectors, recs map[int32]bool) (fired []int32, obs bool) {
	for i := range d.Dets {
		det := &d.Dets[i]
		v := det.Ref
		for _, id := range det.Recs {
			if recs[id] {
				v = !v
			}
		}
		if v {
			fired = append(fired, int32(i))
		}
	}
	return fired, d.observable().Eval(recs)
}

func equalIDs(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestDetectorExtraction checks the detector census of a Z- and an X-basis
// memory experiment: the basis-type plaquettes contribute rounds+1
// detectors each (preparation and readout time boundaries included), the
// opposite type rounds−1, and every reference value is deterministic.
func TestDetectorExtraction(t *testing.T) {
	for _, basis := range []pauli.Kind{pauli.Z, pauli.X} {
		const d, rounds = 3, 3
		mem := mustMemory(t, d, rounds, basis)
		det := mustDetectors(t, mem)
		nPlaq := len(mem.RoundRecords[0].Plaqs)
		same := 0
		for _, p := range mem.RoundRecords[0].Plaqs {
			if p.Type == basis {
				same++
			}
		}
		want := same*(rounds+1) + (nPlaq-same)*(rounds-1)
		if len(det.Dets) != want {
			t.Fatalf("basis %v: %d detectors, want %d", basis, len(det.Dets), want)
		}
		// A noiseless shot fires nothing.
		eng := orqcs.NewFromProgram(mem.Prog)
		eng.RunShot(99)
		fired, obs := syndromeOf(det, eng.Records())
		if len(fired) != 0 {
			t.Fatalf("basis %v: noiseless shot fired %d detectors", basis, len(fired))
		}
		if obs != mem.Reference {
			t.Fatalf("basis %v: noiseless observable %v, want %v", basis, obs, mem.Reference)
		}
	}
}

// TestExtractRejectsNondeterministicDetector pins where a random parity is
// caught: a detector on the random first-round record of a plaquette the
// preparation does not fix (memory and surgery, d=3) passes extraction,
// which only reads Refs off the reference trace, and the exact backward
// pass then rejects it, naming its index, in CompileGraph, the path by
// which detectors reach a decoder or a DEM.
func TestExtractRejectsNondeterministicDetector(t *testing.T) {
	mem := mustMemory(t, 3, 3, pauli.Z)
	s := mustSurgery(t, 3, 1, 3, 1, pauli.Z)
	for _, c := range []struct {
		name  string
		det   *Detectors
		prog  *orqcs.Program
		first *core.RoundResult
		basis pauli.Kind
	}{
		{"memory", mustDetectors(t, mem), mem.Prog, mem.RoundRecords[0], mem.Basis},
		{"surgery", mustSurgeryDetectors(t, s), s.Prog, s.PreA[0], s.Basis},
	} {
		t.Run(c.name, func(t *testing.T) {
			i := slices.IndexFunc(c.first.Plaqs, func(p *core.Plaquette) bool { return p.Type != c.basis })
			p := c.first.Plaqs[i]
			n := len(c.det.Dets)
			c.det.Dets = append(c.det.Dets, Detector{Recs: []int32{c.first.Records[p.Face]}, Face: p.Face, Type: p.Type})
			if err := c.det.referenceValues(c.prog); err != nil {
				t.Fatalf("extraction rejected the random first-round record of %v: %v", p.Face, err)
			}
			sched := noise.Compile(noise.Depolarizing(1e-3), c.prog)
			want := fmt.Sprintf("check %d is not deterministic", n)
			if _, err := CompileGraph(c.det, sched); err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("CompileGraph accepted the random first-round record of %v as detector %d: %v", p.Face, n, err)
			}
		})
	}
}

// TestFrameMatchesTableauDiff cross-validates the batched Pauli-frame
// symptom propagation against full differential tableau simulation, branch
// for branch, under the paper's Table 5 noise (whose two-qubit faults fire
// into all 15 two-qubit Paulis): detector flips and observable flips must
// agree exactly (they are deterministic parities, so they are
// gauge-independent). Memory cases cover both bases; the d=3 merge/split
// cycles put 64-lane sweep groups across the merge and split region
// boundaries and the seam.
func TestFrameMatchesTableauDiff(t *testing.T) {
	model := noise.PaperTable5(hardware.Default())
	cases := []struct {
		name       string
		det        func(t *testing.T) (*orqcs.Program, *Detectors)
		minChecked int
	}{
		{"memory-d3-Z", func(t *testing.T) (*orqcs.Program, *Detectors) {
			mem := mustMemory(t, 3, 2, pauli.Z)
			return mem.Prog, mustDetectors(t, mem)
		}, 100},
		{"memory-d3-X", func(t *testing.T) (*orqcs.Program, *Detectors) {
			mem := mustMemory(t, 3, 2, pauli.X)
			return mem.Prog, mustDetectors(t, mem)
		}, 100},
		{"surgery-d3-Z", func(t *testing.T) (*orqcs.Program, *Detectors) {
			s := mustSurgery(t, 3, 1, 1, 1, pauli.Z)
			return s.Prog, mustSurgeryDetectors(t, s)
		}, 500},
		{"surgery-d3-X", func(t *testing.T) (*orqcs.Program, *Detectors) {
			s := mustSurgery(t, 3, 1, 1, 1, pauli.X)
			return s.Prog, mustSurgeryDetectors(t, s)
		}, 500},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			prog, det := tc.det(t)
			checkFrameMatchesTableau(t, prog, det, noise.Compile(model, prog), tc.minChecked)
		})
	}
}

// checkFrameMatchesTableau compares forEachMechanism's symptom stream with
// one differential tableau run per fault branch, in enumeration order, and
// requires at least minChecked non-trivial branches.
func checkFrameMatchesTableau(t *testing.T, prog *orqcs.Program, det *Detectors, sched *noise.Schedule, minChecked int) {
	t.Helper()
	var frameSyms []noise.Mechanism
	err := forEachMechanism(det, sched, func(m noise.Mechanism) error {
		frameSyms = append(frameSyms, noise.Mechanism{
			P:    m.P,
			Dets: append([]int32(nil), m.Dets...),
			Obs:  m.Obs,
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	const seed = 7
	base := orqcs.NewFromProgram(prog)
	base.RunShot(seed)
	baseFired, baseObs := syndromeOf(det, base.Records())
	if len(baseFired) != 0 {
		t.Fatalf("baseline fired %d detectors", len(baseFired))
	}
	eng := orqcs.NewFromProgram(prog)
	k := 0
	for slot := 0; slot < sched.NumSlots(); slot++ {
		for _, f := range sched.SlotFaults(slot) {
			for b := 0; b < f.NumBranches(); b++ {
				p, x1, z1, x2, z2 := f.Branch(b)
				if p <= 0 {
					continue // forEachMechanism skips impossible branches
				}
				runWithPauli(eng, prog, seed, slot, f.Q1, x1, z1, f.Q2, x2, z2)
				fired, obs := syndromeOf(det, eng.Records())
				obsFlip := obs != baseObs
				if len(fired) == 0 && !obsFlip {
					continue // forEachMechanism skips trivial branches too
				}
				if k >= len(frameSyms) {
					t.Fatalf("tableau found more non-trivial branches than frame propagation (%d)", len(frameSyms))
				}
				m := frameSyms[k]
				k++
				if !equalIDs(fired, m.Dets) || obsFlip != m.Obs || p != m.P {
					t.Fatalf("slot %d fault %+v branch %d: tableau (%v, obs %v, p %g) vs frame (%v, obs %v, p %g)",
						slot, f, b, fired, obsFlip, p, m.Dets, m.Obs, m.P)
				}
			}
		}
	}
	if k != len(frameSyms) {
		t.Fatalf("frame propagation found %d non-trivial branches, tableau %d", len(frameSyms), k)
	}
	if k < minChecked {
		t.Fatalf("only %d branches checked — model too sparse for a meaningful cross-check", k)
	}
}

// TestWeightOneFaultsCorrected injects every single fault branch of a d=3
// memory experiment (both bases) and checks the union-find decoder restores
// the reference logical outcome: distance 3 corrects all weight-1 errors.
func TestWeightOneFaultsCorrected(t *testing.T) {
	for _, basis := range []pauli.Kind{pauli.Z, pauli.X} {
		mem := mustMemory(t, 3, 3, basis)
		det := mustDetectors(t, mem)
		sched := noise.Compile(noise.PaperTable5(hardware.Default()), mem.Prog)
		g := mustGraph(t, det, sched)
		if g.UndetectableMechanisms() != 0 {
			t.Fatalf("basis %v: %d undetectable mechanisms", basis, g.UndetectableMechanisms())
		}
		eng := orqcs.NewFromProgram(mem.Prog)
		checked, rawWrong := 0, 0
		for slot := 0; slot < sched.NumSlots(); slot++ {
			for _, f := range sched.SlotFaults(slot) {
				for b := 0; b < f.NumBranches(); b++ {
					_, x1, z1, x2, z2 := f.Branch(b)
					runWithPauli(eng, mem.Prog, 11, slot, f.Q1, x1, z1, f.Q2, x2, z2)
					recs := eng.Records()
					if det.observable().Eval(recs) != mem.Reference {
						rawWrong++
					}
					if got := g.DecodeOutcome(recs); got != mem.Reference {
						t.Fatalf("basis %v: slot %d fault %+v branch %d decoded %v, want %v",
							basis, slot, f, b, got, mem.Reference)
					}
					checked++
				}
			}
		}
		if checked == 0 {
			t.Fatalf("basis %v: no fault branches enumerated", basis)
		}
		if rawWrong == 0 {
			t.Fatalf("basis %v: no weight-1 fault flipped the raw readout — test is vacuous", basis)
		}
	}
}

// TestDecodedDistanceHelps is the acceptance criterion: under the paper's
// Table 5 noise (one-qubit rate 1e-4), the decoded logical error rate at
// d=5 must be lower than at d=3 — distance now helps, where the raw readout
// rate grows with distance.
func TestDecodedDistanceHelps(t *testing.T) {
	model := noise.PaperTable5(hardware.Default())
	rate := func(d int, shots int) (noise.Result, noise.Result) {
		mem := mustMemory(t, d, d, pauli.Z)
		det := mustDetectors(t, mem)
		sched := noise.Compile(model, mem.Prog)
		g := mustGraph(t, det, sched)
		raw, err := noise.EstimateLogicalError(sched, mem.Outcome, mem.Reference,
			withFrame(t, sched, noise.Options{Shots: shots, Seed: 3}))
		if err != nil {
			t.Fatal(err)
		}
		dec, err := noise.EstimateLogicalError(sched, mem.Outcome, mem.Reference,
			withFrame(t, sched, noise.Options{Shots: shots, Seed: 3, Decoder: g}))
		if err != nil {
			t.Fatal(err)
		}
		return raw, dec
	}
	raw3, dec3 := rate(3, 4000)
	raw5, dec5 := rate(5, 4000)
	t.Logf("d=3: raw %v decoded %v", raw3, dec3)
	t.Logf("d=5: raw %v decoded %v", raw5, dec5)
	if dec3.Rate >= raw3.Rate {
		t.Fatalf("decoding did not reduce the d=3 error rate: %v vs raw %v", dec3.Rate, raw3.Rate)
	}
	if dec5.Rate >= dec3.Rate {
		t.Fatalf("decoded p_L did not fall with distance: d=5 %v vs d=3 %v", dec5.Rate, dec3.Rate)
	}
	if raw5.Rate <= raw3.Rate {
		t.Fatalf("raw readout unexpectedly improved with distance: %v vs %v", raw5.Rate, raw3.Rate)
	}
}

// TestDecoderDeterministicAcrossWorkers checks that decoded estimates are
// bit-identical for 1, 4 and 8 workers.
func TestDecoderDeterministicAcrossWorkers(t *testing.T) {
	mem := mustMemory(t, 3, 3, pauli.Z)
	det := mustDetectors(t, mem)
	sched := noise.Compile(noise.Depolarizing(2e-3), mem.Prog)
	g := mustGraph(t, det, sched)
	var ref noise.Result
	for i, workers := range []int{1, 4, 8} {
		res, err := noise.EstimateLogicalError(sched, mem.Outcome, mem.Reference,
			withFrame(t, sched, noise.Options{Shots: 1500, Seed: 17, Workers: workers, Decoder: g}))
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			ref = res
		} else if res != ref {
			t.Fatalf("workers=%d: %+v differs from single-worker %+v", workers, res, ref)
		}
	}
	if ref.Errors == 0 {
		t.Fatal("no decoded errors observed — determinism check is vacuous")
	}
}

// TestIdealScheduleDecodesRaw: an empty fault schedule compiles to an
// edgeless graph whose decoding is the raw readout.
func TestIdealScheduleDecodesRaw(t *testing.T) {
	mem := mustMemory(t, 3, 2, pauli.Z)
	det := mustDetectors(t, mem)
	g := mustGraph(t, det, noise.Compile(noise.Ideal(), mem.Prog))
	if len(g.Edges()) != 0 {
		t.Fatalf("ideal schedule compiled %d edges", len(g.Edges()))
	}
	eng := orqcs.NewFromProgram(mem.Prog)
	eng.RunShot(5)
	if got := g.DecodeOutcome(eng.Records()); got != mem.Reference {
		t.Fatalf("ideal decode %v, want %v", got, mem.Reference)
	}
}

// TestWriteDEM checks the export structurally: every referenced detector is
// declared with coordinates, probabilities are sane, the observable is
// declared, and output is deterministic.
func TestWriteDEM(t *testing.T) {
	mem := mustMemory(t, 3, 2, pauli.Z)
	det := mustDetectors(t, mem)
	sched := noise.Compile(noise.Depolarizing(1e-3), mem.Prog)
	a := demText(t, det, sched)
	if a != demText(t, det, sched) {
		t.Fatal("DEM output is not deterministic")
	}
	lines := strings.Split(strings.TrimSpace(a), "\n")
	errors, decls := 0, 0
	for _, ln := range lines {
		switch {
		case strings.HasPrefix(ln, "error("):
			errors++
			if !strings.Contains(ln, " D") {
				t.Fatalf("error line without detector target: %q", ln)
			}
		case strings.HasPrefix(ln, "detector("):
			decls++
		}
	}
	if errors == 0 {
		t.Fatal("no error lines emitted")
	}
	if decls != len(det.Dets) {
		t.Fatalf("%d detector declarations, want %d", decls, len(det.Dets))
	}
	if !strings.Contains(a, "logical_observable L0") {
		t.Fatal("missing logical_observable declaration")
	}
}

// TestGraphEdgeSanity: edges reference valid nodes, carry positive merged
// probabilities and even lengths, and the graph connects every detector.
func TestGraphEdgeSanity(t *testing.T) {
	mem := mustMemory(t, 3, 3, pauli.Z)
	det := mustDetectors(t, mem)
	g := mustGraph(t, det, noise.Compile(noise.PaperTable5(hardware.Default()), mem.Prog))
	seen := make([]bool, len(det.Dets))
	for _, e := range g.Edges() {
		if e.U < 0 || e.U >= g.boundary || e.V < e.U || e.V > g.boundary {
			t.Fatalf("edge %+v outside node range", e)
		}
		if e.P <= 0 || e.P >= 1 {
			t.Fatalf("edge %+v has invalid probability", e)
		}
		if e.Len < 2 || e.Len%2 != 0 {
			t.Fatalf("edge %+v has invalid length", e)
		}
		seen[e.U] = true
		if e.V < g.boundary {
			seen[e.V] = true
		}
	}
	for i, s := range seen {
		if !s {
			t.Fatalf("detector %d (%v round %d) has no incident edge",
				i, det.Dets[i].Face, det.Dets[i].Round)
		}
	}
}

// TestDecodeGraphEdgeLength pins the growth-length range a wire graph may
// carry: [2, maxEdgeLen], the range CompileGraph quantizes into. A longer
// edge would size the decoder's bucket queue past what compiled graphs use.
func TestDecodeGraphEdgeLength(t *testing.T) {
	det := mustDetectors(t, mustMemory(t, 3, 3, pauli.Z))
	for _, tc := range []struct {
		len int32
		ok  bool
	}{{1, false}, {2, true}, {maxEdgeLen, true}, {maxEdgeLen + 1, false}, {math.MaxInt32, false}} {
		g := &Graph{det: det, boundary: int32(len(det.Dets))}
		g.finish([]Edge{{U: 0, V: g.boundary, Len: tc.len, P: 0.01}})
		_, err := DecodeGraph(AppendGraph(nil, g))
		if (err == nil) != tc.ok {
			t.Errorf("edge length %d: DecodeGraph error %v, want ok=%v", tc.len, err, tc.ok)
		}
	}
}
