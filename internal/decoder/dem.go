package decoder

import (
	"bufio"
	"fmt"
	"io"

	"tiscc/internal/noise"
)

// WriteDEM writes the detector error model of s, the schedule the graph was
// compiled against, in a Stim-compatible text form, so external decoders
// (PyMatching et al.) can consume TISCC experiments directly:
//
//	error(1.3e-05) D0 D4 L0
//	detector(0, -1, 2, 0) D7
//	logical_observable L0
//
// Error lines carry the raw (pre-decomposition) symptom of every fault
// branch, merged across branches with identical symptoms; detector
// coordinates are (face row, face column, round, stabilizer type) with type
// 0 for the basis-deterministic stabilizers and 1 for the opposite type.
// Output is deterministic for a fixed (detectors, schedule) pair, and the
// same for every graph of s, fresh or re-weighed: it reads the graph's
// retained effect table and runs no backward pass.
func (g *Graph) WriteDEM(w io.Writer, s *noise.Schedule) error {
	if err := g.CheckSchedule(s); err != nil {
		return err
	}
	d := g.det
	type sym struct {
		dets []int32
		obs  bool
		p    float64
	}
	var ordered []sym
	index := map[string]int{}
	keyBuf := make([]byte, 0, 64)
	err := g.eff.EachMechanism(s, func(m noise.Mechanism) error {
		keyBuf = keyBuf[:0]
		for _, di := range m.Dets {
			keyBuf = append(keyBuf,
				byte(di), byte(di>>8), byte(di>>16), byte(di>>24))
		}
		if m.Obs {
			keyBuf = append(keyBuf, 1)
		}
		k := string(keyBuf)
		if i, ok := index[k]; ok {
			ordered[i].p = mergeP(ordered[i].p, m.P)
			return nil
		}
		index[k] = len(ordered)
		ordered = append(ordered, sym{
			dets: append([]int32(nil), m.Dets...),
			obs:  m.Obs,
			p:    m.P,
		})
		return nil
	})
	if err != nil {
		return err
	}
	// Mechanisms whose merged probability vanished (zero-rate model classes,
	// or p=1 branches with identical symptoms cancelling under the XOR
	// merge) carry no information: an error(0) line is pure noise for
	// downstream decoders, so it is skipped at write time.
	kept := ordered[:0]
	for _, m := range ordered {
		if m.p > 0 {
			kept = append(kept, m)
		}
	}
	ordered = kept
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# TISCC detector error model: %d detectors, %d mechanisms, model %q\n",
		len(d.Dets), len(ordered), s.Model().Name)
	for _, m := range ordered {
		fmt.Fprintf(bw, "error(%g)", m.p)
		for _, di := range m.dets {
			fmt.Fprintf(bw, " D%d", di)
		}
		if m.obs {
			fmt.Fprint(bw, " L0")
		}
		fmt.Fprintln(bw)
	}
	for i := range d.Dets {
		det := &d.Dets[i]
		t := 0
		if det.Type != d.basis {
			t = 1
		}
		fmt.Fprintf(bw, "detector(%d, %d, %d, %d) D%d\n", det.Face.I, det.Face.J, det.Round, t, i)
	}
	fmt.Fprintln(bw, "logical_observable L0")
	return bw.Flush()
}
