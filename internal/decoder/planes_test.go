package decoder

import (
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"tiscc/internal/expr"
	"tiscc/internal/frame"
	"tiscc/internal/hardware"
	"tiscc/internal/noise"
	"tiscc/internal/orqcs"
	"tiscc/internal/pauli"
)

// Fire is the record-word detector kernel: given a batch's record words
// (frame.Batch.RecordWords, one per record id, bit i for lane i), it sets
// fired[i] (len(fired) ≥ NumDetectors) to the lanes on which detector i
// fires — Ref XORed with the words of its records, masked to lanes — and
// returns the lanes whose syndrome is non-empty. One XOR covers a whole
// 64-shot batch. The tests hold decoded batches' detector words
// (Planes.Dets) against it; decoded estimates never read records.
func (d *Detectors) Fire(words []uint64, lanes uint64, fired []uint64) (live uint64) {
	for i := range d.Dets {
		det := &d.Dets[i]
		var w uint64
		if det.Ref {
			w = ^w
		}
		for _, id := range det.Recs {
			w ^= words[id]
		}
		w &= lanes
		fired[i] = w
		live |= w
	}
	return live
}

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

// TestPlanesMatchRecords compares the firing path against the record path:
// on frame batches of memory and surgery experiments under two noise
// models, with a partial last batch, every lane of the record words agrees
// with the per-lane record table — each record bit, the raw outcome word
// against Expr.Eval, the record detector words against
// Detectors.Syndrome — and the detector-space decode of the same batch's
// firings agrees with both: its detector words (Planes.Dets) with the
// record words, its DecodePlanes bit with DecodeOutcome on the record
// table. The two decode paths leave identical decoder counters and
// histograms.
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
					p, words := b.Planes(), b.RecordWords()
					if len(words) != c.prog.NumRecords() {
						t.Fatalf("batch carries %d record words, program %d records", len(words), c.prog.NumRecords())
					}
					raw := c.outcome.EvalWords(words)
					live := c.det.Fire(words, p.Lanes, fired)
					out, fallback := gPlanes.DecodePlanes(p)
					if fallback != 0 {
						t.Fatalf("batch %d: fallback lanes %x", first/64, fallback)
					}
					for i, w := range fired {
						if p.Dets[i] != w {
							t.Fatalf("batch %d detector %d: firings fire lanes %#x, records %#x", first/64, i, p.Dets[i], w)
						}
					}
					for lane := 0; lane < p.N; lane++ {
						shot, bit := first+lane, uint(lane)
						recs := b.Records(lane)
						for id, w := range words {
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

// TestCheckRecords pins the record half of the binding check: a detector
// or observable record outside the program is an error, before any decode
// reads it.
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
	sched := noise.Compile(noise.Depolarizing(1e-3), mem.Prog)
	good := mustGraph(t, det, sched)
	for name, d := range map[string]*Detectors{"detector": &badDet, "observable": &badObs} {
		if err := d.CheckRecords(n); err == nil {
			t.Errorf("%s record outside [0, %d) passed the check", name, n)
		}
		g := &Graph{det: d, eff: good.eff}
		if _, err := noise.EstimateLogicalError(sched, mem.Outcome, mem.Reference,
			withFrame(t, sched, noise.Options{Shots: 10, Decoder: g})); err == nil {
			t.Errorf("%s: the estimator bound a decoder reading outside the program", name)
		}
	}
}

// TestCheckScheduleBindsDecoder pins the symptom half of the binding check:
// symptoms are indexed by the schedule's fault sites and their kinds, so a
// graph compiled against the Depolarizing schedule of a program must be
// refused, with an OptionError on Decoder, when the estimate samples the
// Table 5 schedule of the same program — and decoding the graph from the
// wire keeps the binding.
func TestCheckScheduleBindsDecoder(t *testing.T) {
	mem := mustMemory(t, 3, 3, pauli.Z)
	det := mustDetectors(t, mem)
	depol := noise.Compile(noise.Depolarizing(1e-3), mem.Prog)
	table5 := noise.Compile(noise.PaperTable5(hardware.Default()), mem.Prog)
	g := mustGraph(t, det, depol)
	wired, err := DecodeGraph(AppendGraph(nil, g))
	if err != nil {
		t.Fatal(err)
	}
	for name, g := range map[string]*Graph{"compiled": g, "decoded": wired} {
		if err := g.CheckSchedule(depol); err != nil {
			t.Fatalf("%s: the graph's own schedule was refused: %v", name, err)
		}
		if err := g.CheckSchedule(table5); err == nil {
			t.Fatalf("%s: a Depolarizing graph bound the Table 5 schedule", name)
		}
		res, err := noise.EstimateLogicalError(table5, mem.Outcome, mem.Reference,
			withFrame(t, table5, noise.Options{Shots: 64, Decoder: g}))
		var oe *noise.OptionError
		if !errors.As(err, &oe) || oe.Field != "Decoder" {
			t.Fatalf("%s: got %+v, %v; want an OptionError on Decoder", name, res, err)
		}
	}
}

// TestDecodeGraphRejectsBadSymptoms pins the wire validation of the
// effect table a graph carries: the table of a valid graph survives the
// trip exactly, and a graph whose table names an unknown fault kind, a
// detector outside the graph or a truncated id list fails to decode with
// an error. (noise's TestDecodeEffectsRejectsDamage covers the table's
// validation case by case.)
func TestDecodeGraphRejectsBadSymptoms(t *testing.T) {
	mem := mustMemory(t, 3, 3, pauli.Z)
	g := mustGraph(t, mustDetectors(t, mem), noise.Compile(noise.Depolarizing(1e-3), mem.Prog))
	nDets := len(g.det.Dets)
	all := AppendGraph(nil, g)
	table := noise.AppendEffects(nil, &g.eff)
	prefix := all[:len(all)-len(table)]
	wired, err := DecodeGraph(all)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(wired.eff, g.eff) {
		t.Fatal("the effect table changed on the wire")
	}
	if nDets > 1<<16 {
		t.Fatalf("%d detectors: the table's ids are not u16", nDets)
	}
	// The table opens with its kinds blob (u32 length, then one byte per
	// site) and ends with its ids blob (u16 per id).
	for name, mutate := range map[string]func(b []byte) []byte{
		"fault kind": func(b []byte) []byte { b[4] = noise.NumFaultKinds; return b },
		"detector out of range": func(b []byte) []byte {
			binary.LittleEndian.PutUint16(b[len(b)-2:], uint16(nDets))
			return b
		},
		"truncated ids": func(b []byte) []byte { return b[:len(b)-2] },
	} {
		bad := append(slices.Clone(prefix), mutate(slices.Clone(table))...)
		if _, err := DecodeGraph(bad); err == nil {
			t.Errorf("%s: a damaged effect table decoded", name)
		}
	}
}
