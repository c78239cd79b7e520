package decoder

import (
	"fmt"
	"reflect"
	"testing"

	"tiscc/internal/expr"
	"tiscc/internal/frame"
	"tiscc/internal/hardware"
	"tiscc/internal/noise"
	"tiscc/internal/orqcs"
	"tiscc/internal/pauli"
)

// planesCase is one experiment of the plane-vs-map differential matrix.
type planesCase struct {
	name    string
	prog    *orqcs.Program
	det     *Detectors
	outcome expr.Expr
}

func planesCases(t *testing.T) []planesCase {
	t.Helper()
	var out []planesCase
	dists := []int{3, 5, 7, 9}
	if testing.Short() {
		dists = []int{3, 5}
	}
	for _, d := range dists {
		mem := mustMemory(t, d, d, pauli.Z)
		out = append(out, planesCase{fmt.Sprintf("memory-d%d", d), mem.Prog, mustDetectors(t, mem), mem.Outcome})
	}
	for _, d := range []int{3, 5} {
		s := mustSurgery(t, d, 1, d, 1, pauli.Z)
		out = append(out, planesCase{fmt.Sprintf("surgery-d%d", d), s.Prog, mustSurgeryDetectors(t, s), s.Outcome})
	}
	return out
}

// TestPlanesMatchRecords is the plane-vs-map differential test: on frame
// batches of memory and surgery experiments under two noise models, with a
// partial last batch, every lane of the record plane agrees with the
// per-lane record table — each record bit, the raw outcome word against
// Expr.Eval, the detector words against Detectors.Syndrome, and the
// DecodePlanes bit against DecodeOutcome — and the two decode paths leave
// identical decoder counters and histograms.
func TestPlanesMatchRecords(t *testing.T) {
	const shots, seed = 64*2 + 29, 3
	models := []noise.Model{noise.Depolarizing(1e-3), noise.PaperTable5(hardware.Default())}
	for _, c := range planesCases(t) {
		for _, m := range models {
			t.Run(c.name+"/"+m.Name, func(t *testing.T) {
				sched := noise.Compile(m, c.prog)
				gPlanes := mustGraph(t, c.det, sched)
				gMap, err := DecodeGraph(AppendGraph(nil, gPlanes))
				if err != nil {
					t.Fatal(err)
				}
				sim, err := frame.New(c.prog, sched)
				if err != nil {
					t.Fatal(err)
				}
				b := sim.NewBatch()
				fired := make([]uint64, c.det.NumDetectors())
				var syn []int32
				nonEmpty := 0
				for first := 0; first < shots; first += 64 {
					b.Run(first, min(64, shots-first), seed)
					p := b.Planes()
					if len(p.Words) != c.prog.NumRecords() {
						t.Fatalf("plane carries %d words, program %d records", len(p.Words), c.prog.NumRecords())
					}
					raw := c.outcome.EvalWords(p.Words)
					live := c.det.Fire(p, fired)
					out, fallback := gPlanes.DecodePlanes(p)
					if fallback != 0 {
						t.Fatalf("batch %d: fallback lanes %x", first/64, fallback)
					}
					for lane := 0; lane < p.N; lane++ {
						shot, bit := first+lane, uint(lane)
						recs := b.Records(lane)
						for id, w := range p.Words {
							if got := w>>bit&1 == 1; got != recs[int32(id)] {
								t.Fatalf("shot %d record %d: plane %v, records %v", shot, id, got, recs[int32(id)])
							}
						}
						if got := raw>>bit&1 == 1; got != c.outcome.Eval(recs) {
							t.Fatalf("shot %d: raw outcome word %v, Expr.Eval %v", shot, got, !got)
						}
						syn = c.det.Syndrome(recs, syn[:0])
						var fromWords []int32
						for i, w := range fired {
							if w>>bit&1 == 1 {
								fromWords = append(fromWords, int32(i))
							}
						}
						if !equalIDs(fromWords, syn) {
							t.Fatalf("shot %d: detector words fire %v, Syndrome %v", shot, fromWords, syn)
						}
						if (live>>bit&1 == 1) != (len(syn) > 0) {
							t.Fatalf("shot %d: live lane bit disagrees with a %d-defect syndrome", shot, len(syn))
						}
						if len(syn) > 0 {
							nonEmpty++
						}
						if got, want := out>>bit&1 == 1, gMap.DecodeOutcome(recs); got != want {
							t.Fatalf("shot %d: DecodePlanes %v, DecodeOutcome %v", shot, got, want)
						}
					}
					if live&^p.Lanes != 0 {
						t.Fatalf("batch %d: live lanes %x outside the sampled mask %x", first/64, live, p.Lanes)
					}
				}
				if nonEmpty == 0 {
					t.Fatal("no shot fired a detector: the decode core was never compared")
				}
				sp, sm := gPlanes.Metrics(), gMap.Metrics()
				if !reflect.DeepEqual(sp.Counters, sm.Counters) || !reflect.DeepEqual(sp.Hists, sm.Hists) {
					t.Fatalf("decoder telemetry differs:\nplanes %v %v\nmap    %v %v", sp.Counters, sp.Hists, sm.Counters, sm.Hists)
				}
				if n := sp.Counter("shots"); n != shots {
					t.Fatalf("decoder counted %d shots, want %d", n, shots)
				}
			})
		}
	}
}

// TestCheckRecords pins the binding check: a detector or observable record
// outside the plane is an error, before any decode reads it.
func TestCheckRecords(t *testing.T) {
	mem := mustMemory(t, 3, 3, pauli.Z)
	det := mustDetectors(t, mem)
	n := mem.Prog.NumRecords()
	if err := det.CheckRecords(n); err != nil {
		t.Fatalf("extracted detectors: %v", err)
	}
	badDet := *det
	badDet.Dets = append([]Detector(nil), det.Dets...)
	badDet.Dets[0].Recs = []int32{int32(n)}
	badObs := *det
	badObs.Obs = []int32{-1}
	for name, d := range map[string]*Detectors{"detector": &badDet, "observable": &badObs} {
		if err := d.CheckRecords(n); err == nil {
			t.Errorf("%s record outside [0, %d) passed the check", name, n)
		}
		g := &Graph{det: d}
		sched := noise.Compile(noise.Depolarizing(1e-3), mem.Prog)
		if _, err := noise.EstimateLogicalError(sched, mem.Outcome, mem.Reference,
			withFrame(t, sched, noise.Options{Shots: 10, Decoder: g})); err == nil {
			t.Errorf("%s: the estimator bound a decoder reading outside the plane", name)
		}
	}
}
