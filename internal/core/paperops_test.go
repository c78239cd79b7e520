package core

import (
	"strings"
	"testing"

	"tiscc/internal/expr"
	"tiscc/internal/hardware"
	"tiscc/internal/orqcs"
)

// TestSplitHorizontal splits a wide Z-prepared patch into a left and a right
// patch. As after a merge split (TestPostSplitBoundariesKnown), the tracker
// derives every plaquette of both halves from the round and seam records
// and one more round on the simulator agrees; both halves then read a
// deterministic Z̄ = +1.
func TestSplitHorizontal(t *testing.T) {
	c := NewCompiler(5, 12, hardware.Default())
	lq, err := c.NewLogicalQubit(7, 3, Cell{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	lq.TransversalPrepareZ()
	if _, err := lq.Idle(1); err != nil {
		t.Fatal(err)
	}
	a, b, seam, err := lq.SplitHorizontal(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if a.Cols != 3 || b.Cols != 3 || b.Origin != (Cell{1, 5}) || len(seam) != 3 {
		t.Fatalf("split into %d+%d columns (right origin %v), %d seam records", a.Cols, b.Cols, b.Origin, len(seam))
	}
	var preds []expr.Expr
	for _, half := range []*LogicalQubit{a, b} {
		for _, p := range half.Plaquettes() {
			ok, e := c.TR.Expectation(half.StabilizerString(p))
			if !ok {
				t.Fatalf("plaquette %v of patch at %v not determined after split", p.Face, half.Origin)
			}
			preds = append(preds, e)
		}
	}
	ra, err := a.Idle(1)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := b.Idle(1)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := orqcs.RunOnce(c.Build(), 41)
	if err != nil {
		t.Fatal(err)
	}
	recs := eng.Records()
	i := 0
	for _, rr := range []*RoundResult{ra[0], rb[0]} {
		for _, p := range rr.Plaqs {
			if want, got := preds[i].Eval(recs), recs[rr.Records[p.Face]]; got != want {
				t.Errorf("plaquette %v: predicted %v, measured %v", p.Face, want, got)
			}
			i++
		}
	}
	for _, half := range []*LogicalQubit{a, b} {
		if v := singleExp(t, c, half, LogicalZ, eng); v != 1 {
			t.Errorf("patch at %v: ⟨Z̄⟩ = %v after split, want 1", half.Origin, v)
		}
	}
}

// TestTrackPauliFrame folds a record-controlled X̄ into the frame: the Z̄
// value formula gains the controlling expression and X̄'s does not.
func TestTrackPauliFrame(t *testing.T) {
	c := newTestCompiler(t, 3, 3)
	lq := newTestPatch(t, c, 3, 3)
	lq.TransversalPrepareZ()
	rr, err := lq.Idle(1)
	if err != nil {
		t.Fatal(err)
	}
	ctrl := expr.FromID(rr[0].Records[rr[0].Plaqs[0].Face])
	z0, err := lq.LogicalValueOf(LogicalZ)
	if err != nil {
		t.Fatal(err)
	}
	x0, _ := lq.LogicalValueOf(LogicalX)
	lq.TrackPauliFrame(LogicalX, ctrl)
	z1, err := lq.LogicalValueOf(LogicalZ)
	if err != nil {
		t.Fatal(err)
	}
	if want := z0.Sign.Xor(ctrl); !z1.Sign.Equal(want) {
		t.Errorf("Z̄ sign after tracking X̄ controlled by %v: %v, want %v", ctrl, z1.Sign, want)
	}
	if x1, _ := lq.LogicalValueOf(LogicalX); !x1.Sign.Equal(x0.Sign) {
		t.Errorf("X̄ sign moved from %v to %v", x0.Sign, x1.Sign)
	}
}

// TestOutputImageOfIdle marks a channel start before an idle round: the
// round's image of Z̄ is Z̄ itself, with an empty frame.
func TestOutputImageOfIdle(t *testing.T) {
	c := newTestCompiler(t, 3, 3)
	lq := newTestPatch(t, c, 3, 3)
	lq.TransversalPrepareZ()
	mark := c.MarkChannelStart()
	if _, err := lq.Idle(1); err != nil {
		t.Fatal(err)
	}
	z, err := lq.LogicalValueOf(LogicalZ)
	if err != nil {
		t.Fatal(err)
	}
	mask, frame, err := c.OutputImage(z.Rep, []LogicalTerm{{lq, LogicalX}, {lq, LogicalZ}}, mark)
	if err != nil {
		t.Fatal(err)
	}
	if mask[0] || !mask[1] || !frame.Equal(expr.Zero()) {
		t.Errorf("image of Z̄: mask %v (X̄, Z̄), frame %v; want Z̄ alone with an empty frame", mask, frame)
	}
}

// TestDescribePlaquettes lists a d=3 patch's stabilizers: four weight-4
// bulk plaquettes and four weight-2 boundary ones.
func TestDescribePlaquettes(t *testing.T) {
	c := newTestCompiler(t, 3, 3)
	lq := newTestPatch(t, c, 3, 3)
	lines := strings.Split(strings.TrimSuffix(lq.DescribePlaquettes(), "\n"), "\n")
	weights := map[string]int{}
	for _, l := range lines {
		weights[l[strings.LastIndexByte(l, ' ')+1:]]++
	}
	if len(lines) != 8 || weights["4"] != 4 || weights["2"] != 4 {
		t.Errorf("d=3 patch plaquettes by weight %v over %d lines, want 4 of weight 4 and 4 of weight 2:\n%s",
			weights, len(lines), strings.Join(lines, "\n"))
	}
}
