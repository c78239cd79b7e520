package decoder

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"

	"tiscc/internal/core"
	"tiscc/internal/frame"
	"tiscc/internal/hardware"
	"tiscc/internal/noise"
	"tiscc/internal/orqcs"
	"tiscc/internal/pauli"
	"tiscc/internal/telemetry"
	"tiscc/internal/verify"
)

// rowMajorSampler is the row-major reference tableau as a record source:
// one directly constructed engine per pool worker, each registering a
// telemetry shard in met. It hands over records, not firings, so decoded
// estimates judge it through the record oracle (rowMajorErrors).
type rowMajorSampler struct {
	sched *noise.Schedule
	met   *telemetry.Set
}

// rowMajorErrors counts the shots of the row-major sampler whose records,
// decoded through DecodeOutcome, disagree with the reference outcome.
func rowMajorErrors(t *testing.T, r *rowMajorSampler, g *Graph, reference bool, shots int, seed int64, workers int) int {
	t.Helper()
	prog := r.sched.Program()
	newEngine := func() *orqcs.Engine {
		e := orqcs.NewFromProgramRowMajor(prog)
		e.SetTelemetry(r.met.NewShard())
		return e
	}
	var errs atomic.Int64
	err := orqcs.RunPool(shots, workers, newEngine, func(e *orqcs.Engine, i int) error {
		r.sched.RunShot(e, orqcs.ShotSeed(seed, i))
		if g.DecodeOutcome(e.Records()) != reference {
			errs.Add(1)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return int(errs.Load())
}

func mustSurgery(t testing.TB, d, pre, merge, post int, basis pauli.Kind) *verify.Surgery {
	t.Helper()
	s, err := verify.SurgeryExperiment(d, pre, merge, post, basis)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func mustSurgeryDetectors(t testing.TB, s *verify.Surgery) *Detectors {
	t.Helper()
	det, err := ExtractSurgery(s)
	if err != nil {
		t.Fatal(err)
	}
	return det
}

// TestSurgeryDetectorExtraction checks the structural invariants of
// region-aware extraction on a d=3 merge/split cycle in both bases: every
// detector's reference is deterministic (enforced inside ExtractSurgery), a
// noiseless shot fires nothing, rounds are stitched across all three
// regions, and the merge-parity detector over the crossing plaquettes is
// present.
func TestSurgeryDetectorExtraction(t *testing.T) {
	for _, basis := range []pauli.Kind{pauli.Z, pauli.X} {
		const d, pre, merge, post = 3, 2, 2, 2
		s := mustSurgery(t, d, pre, merge, post, basis)
		det := mustSurgeryDetectors(t, s)
		if det.Rounds() != pre+merge+post {
			t.Fatalf("basis %v: %d rounds, want %d", basis, det.Rounds(), pre+merge+post)
		}
		eng := orqcs.NewFromProgram(s.Prog)
		eng.RunShot(99)
		fired, obs := syndromeOf(det, eng.Records())
		if len(fired) != 0 {
			t.Fatalf("basis %v: noiseless shot fired %d detectors", basis, len(fired))
		}
		if obs != s.Reference {
			t.Fatalf("basis %v: noiseless observable %v, want %v", basis, obs, s.Reference)
		}
		// One merge-parity detector: the only merge-round check spanning more
		// than a predecessor/successor record pair.
		parity := 0
		roundsSeen := map[int]bool{}
		for i := range det.Dets {
			dt := &det.Dets[i]
			if len(dt.Recs) == 0 {
				t.Fatalf("basis %v: empty detector %d", basis, i)
			}
			roundsSeen[dt.Round] = true
			if dt.Round == pre && dt.Type == basis && len(dt.Recs) > 2 {
				parity++
			}
		}
		if parity != 1 {
			t.Fatalf("basis %v: %d merge-parity detectors, want 1", basis, parity)
		}
		for r := 0; r <= pre+merge+post; r++ {
			if !roundsSeen[r] {
				t.Fatalf("basis %v: no detector at global round %d", basis, r)
			}
		}
		// Split close-out detectors exist: at the split round some detector
		// must fold seam records (support 3 or more).
		closeOut := 0
		for i := range det.Dets {
			dt := &det.Dets[i]
			if dt.Round == pre+merge && len(dt.Recs) >= 3 {
				closeOut++
			}
		}
		if closeOut == 0 {
			t.Fatalf("basis %v: no split close-out detectors fold seam records", basis)
		}
	}
}

// TestSurgeryWeightOneFaultsCorrected is the exhaustive fault-injection
// harness of the surgery decoder: every single fault branch of a d=3
// merge/split cycle — every slot, every branch (X, Y, Z and all 15
// two-qubit Paulis), both bases — must decode to the reference joint
// parity. Distance 3 corrects all weight-1 errors, including those striking
// the seam, the joint measurement and the split readout.
func TestSurgeryWeightOneFaultsCorrected(t *testing.T) {
	for _, basis := range []pauli.Kind{pauli.Z, pauli.X} {
		s := mustSurgery(t, 3, 1, 1, 1, basis)
		det := mustSurgeryDetectors(t, s)
		sched := noise.Compile(noise.PaperTable5(hardware.Default()), s.Prog)
		g := mustGraph(t, det, sched)
		if g.UndetectableMechanisms() != 0 {
			t.Fatalf("basis %v: %d undetectable mechanisms", basis, g.UndetectableMechanisms())
		}
		eng := orqcs.NewFromProgram(s.Prog)
		checked, rawWrong := 0, 0
		for slot := 0; slot < sched.NumSlots(); slot++ {
			for _, f := range sched.SlotFaults(slot) {
				for b := 0; b < f.NumBranches(); b++ {
					_, x1, z1, x2, z2 := f.Branch(b)
					runWithPauli(eng, s.Prog, 11, slot, f.Q1, x1, z1, f.Q2, x2, z2)
					recs := eng.Records()
					if det.observable().Eval(recs) != s.Reference {
						rawWrong++
					}
					if got := g.DecodeOutcome(recs); got != s.Reference {
						t.Fatalf("basis %v: slot %d fault %+v branch %d decoded %v, want %v",
							basis, slot, f, b, got, s.Reference)
					}
					checked++
				}
			}
		}
		if checked < 1000 {
			t.Fatalf("basis %v: only %d fault branches enumerated", basis, checked)
		}
		if rawWrong == 0 {
			t.Fatalf("basis %v: no weight-1 fault flipped the raw joint parity — test is vacuous", basis)
		}
		t.Logf("basis %v: %d branches decoded, %d raw flips corrected", basis, checked, rawWrong)
	}
}

// TestDecodedSurgeryDistanceHelps is the acceptance criterion: under the
// paper's Table 5 noise, the decoded joint-parity error rate of the d=5
// merge/split cycle must be below the d=3 rate, while decoding must beat
// the raw readout at d=3.
func TestDecodedSurgeryDistanceHelps(t *testing.T) {
	model := noise.PaperTable5(hardware.Default())
	rate := func(d, shots int, wantRaw bool) (raw, dec noise.Result) {
		s := mustSurgery(t, d, 1, d, 1, pauli.Z)
		det := mustSurgeryDetectors(t, s)
		sched := noise.Compile(model, s.Prog)
		g := mustGraph(t, det, sched)
		var err error
		if wantRaw {
			raw, err = noise.EstimateLogicalError(sched, s.Outcome, s.Reference,
				withFrame(t, sched, noise.Options{Shots: shots, Seed: 3}))
			if err != nil {
				t.Fatal(err)
			}
		}
		dec, err = noise.EstimateLogicalError(sched, s.Outcome, s.Reference,
			withFrame(t, sched, noise.Options{Shots: shots, Seed: 3, Decoder: g}))
		if err != nil {
			t.Fatal(err)
		}
		return raw, dec
	}
	shots := 4000
	if raceEnabled {
		// The race detector multiplies the shot loop's cost ~15×; a reduced
		// (still deterministic) run keeps the race job inside the go test
		// timeout while the full-shot comparison runs in the regular job.
		shots = 1000
	}
	raw3, dec3 := rate(3, shots, true)
	_, dec5 := rate(5, shots, false)
	t.Logf("d=3: raw %v decoded %v", raw3, dec3)
	t.Logf("d=5: decoded %v", dec5)
	if dec3.Rate >= raw3.Rate {
		t.Fatalf("decoding did not reduce the d=3 surgery error rate: %v vs raw %v", dec3.Rate, raw3.Rate)
	}
	if dec5.Rate >= dec3.Rate {
		t.Fatalf("decoded surgery p_L did not fall with distance: d=5 %v vs d=3 %v", dec5.Rate, dec3.Rate)
	}
}

// surgeryGolden is the fixed-expectation file format of the determinism
// matrix: exact shot/error counts for a fully specified estimation run.
func surgeryGolden(res noise.Result) string {
	return fmt.Sprintf("shots=%d errors=%d reference=%v\n", res.Shots, res.Errors, res.Reference)
}

// TestSurgeryDeterminismMatrix pins the decoded surgery estimate down
// completely: bit-identical across 1, 4 and 8 workers, equal to the
// row-major tableau's, and — for two different seeds — equal to the
// expectation files committed under testdata, so any change to the
// sampler, the extraction or the decoder that shifts results is caught as a
// diff against fixed expectations.
func TestSurgeryDeterminismMatrix(t *testing.T) {
	s := mustSurgery(t, 3, 1, 2, 1, pauli.Z)
	det := mustSurgeryDetectors(t, s)
	sched := noise.Compile(noise.Depolarizing(2e-3), s.Prog)
	g := mustGraph(t, det, sched)
	sim, err := frame.New(s.Prog, sched)
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range []int64{7, 11} {
		var ref noise.Result
		for i, workers := range []int{1, 4, 8} {
			res, err := noise.EstimateLogicalError(sched, s.Outcome, s.Reference,
				noise.Options{Shots: 1500, Seed: seed, Workers: workers, Decoder: g, Sampler: sim})
			if err != nil {
				t.Fatal(err)
			}
			if i == 0 {
				ref = res
			} else if res != ref {
				t.Fatalf("seed %d workers=%d: %+v differs from single-worker %+v", seed, workers, res, ref)
			}
		}
		// The telemetry-instrumented row-major tableau (Set-registered shards
		// merged across workers) must also land on the pinned expectations:
		// metrics collection touches no RNG, so it cannot perturb records.
		// Its records, decoded shot by shot through the record oracle, must
		// count exactly the detector-space estimate's errors.
		es := &rowMajorSampler{sched: sched, met: telemetry.NewSet(orqcs.SamplerSchema)}
		for _, workers := range []int{1, 4} {
			if n := rowMajorErrors(t, es, g, s.Reference, 1500, seed, workers); n != ref.Errors || ref.Shots != 1500 {
				t.Fatalf("seed %d workers=%d: instrumented sampler's record oracle counts %d/1500 errors, the estimate %d/%d",
					seed, workers, n, ref.Errors, ref.Shots)
			}
		}
		if snap := es.met.Snapshot(); snap.Counter("shots") != 2*1500 {
			t.Fatalf("instrumented sampler counted %d shots, want %d", snap.Counter("shots"), 2*1500)
		}
		golden := filepath.Join("testdata", fmt.Sprintf("decoded_surgery_d3_seed%d.golden", seed))
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatalf("missing expectation file (write %q into it to pin a legitimate sampler change): %v",
				surgeryGolden(ref), err)
		}
		if got := surgeryGolden(ref); got != string(want) {
			t.Fatalf("seed %d: estimate drifted from %s:\n got %q\nwant %q", seed, golden, got, want)
		}
	}
}

// TestSurgeryEvenDistanceExtraction exercises the gap-2 seam of even
// distances, the only geometry with plaquettes wholly inside the seam:
// they must take time-boundary detectors from the seam preparation and
// close out entirely against the transversal seam measurement, and the
// decoder must still correct single faults on them.
func TestSurgeryEvenDistanceExtraction(t *testing.T) {
	s := mustSurgery(t, 4, 1, 1, 1, pauli.Z)
	det := mustSurgeryDetectors(t, s)
	pureSeamBirth, pureSeamClose := 0, 0
	for i := range det.Dets {
		dt := &det.Dets[i]
		if dt.Round == s.Pre && dt.Type == s.SeamBasis && len(dt.Recs) == 1 {
			pureSeamBirth++
		}
		if dt.Round == s.Pre+s.Merge && dt.Type == s.SeamBasis && len(dt.Recs) == 5 {
			pureSeamClose++
		}
	}
	if pureSeamBirth == 0 || pureSeamClose == 0 {
		t.Fatalf("gap-2 seam produced %d pure-seam birth and %d close-out detectors", pureSeamBirth, pureSeamClose)
	}
	g := mustGraph(t, det, noise.Compile(noise.Depolarizing(1e-3), s.Prog))
	if g.UndetectableMechanisms() != 0 {
		t.Fatalf("%d undetectable mechanisms", g.UndetectableMechanisms())
	}
}

// TestExtractSurgeryRoundMismatch is the regression test for the typed
// error: record tables whose round structure contradicts the header must
// yield ErrRoundMismatch (never a panic), for the memory extractor and for
// every phase of the surgery extractor.
func TestExtractSurgeryRoundMismatch(t *testing.T) {
	s := mustSurgery(t, 3, 1, 2, 1, pauli.Z)
	tamper := []struct {
		name   string
		mutate func(*verify.Surgery)
	}{
		{"pre truncated", func(s *verify.Surgery) { s.PreA = nil }},
		{"merged truncated", func(s *verify.Surgery) { s.MergedRounds = s.MergedRounds[:1] }},
		{"post truncated", func(s *verify.Surgery) { s.PostB = s.PostB[:0] }},
	}
	for _, tc := range tamper {
		cp := *s
		tc.mutate(&cp)
		_, err := ExtractSurgery(&cp)
		if !errors.Is(err, ErrRoundMismatch) {
			t.Fatalf("%s: got %v, want ErrRoundMismatch", tc.name, err)
		}
	}
	// Dropping a merged plaquette whose history continues from the pre-phase
	// leaves a dangling pre-merge chain; the stitch check must reject it
	// rather than silently weaken the detector set.
	cp := *s
	preFaces := map[histKey]bool{}
	for _, p := range s.PreA[0].Plaqs {
		preFaces[keyOf(s.OriginA, p)] = true
	}
	drop := -1
	for i, p := range s.MergedRounds[0].Plaqs {
		if preFaces[keyOf(s.OriginA, p)] {
			drop = i
			break
		}
	}
	if drop < 0 {
		t.Fatal("no merged plaquette continues a pre-merge history")
	}
	rr := *s.MergedRounds[0]
	rr.Plaqs = append(append([]*core.Plaquette{}, rr.Plaqs[:drop]...), rr.Plaqs[drop+1:]...)
	cp.MergedRounds = append([]*core.RoundResult{&rr}, s.MergedRounds[1:]...)
	if _, err := ExtractSurgery(&cp); !errors.Is(err, ErrRoundMismatch) {
		t.Fatalf("dropped merged plaquette: got %v, want ErrRoundMismatch", err)
	}
	mem := mustMemory(t, 3, 3, pauli.Z)
	mem.RoundRecords = mem.RoundRecords[:2]
	if _, err := Extract(mem); !errors.Is(err, ErrRoundMismatch) {
		t.Fatalf("memory: got %v, want ErrRoundMismatch", err)
	}
}
