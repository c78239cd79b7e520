package noise

import (
	"reflect"
	"slices"
	"testing"

	"tiscc/internal/circuit"
	"tiscc/internal/orqcs"
	"tiscc/internal/wire"
)

// effectsFixture compiles the effect table of a two-qubit program — each
// qubit measured once — against checks {r0}, {r0, r1}, {r1} and observable
// {r0}, under depolarizing noise: the measurement flip on qubit 0 flips two
// checks and the observable.
func effectsFixture(t *testing.T) (*Schedule, *Effects) {
	t.Helper()
	c, err := circuit.Parse("Prepare_Z 0.1\nPrepare_Z 0.2\nMeasure_Z 0.1 m=0\nMeasure_Z 0.2 m=1\n")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := orqcs.Compile(c)
	if err != nil {
		t.Fatal(err)
	}
	s := Compile(Depolarizing(1e-2), prog)
	e, err := CompileEffects(s, [][]int32{{0}, {0, 1}, {1}}, []int32{0})
	if err != nil {
		t.Fatal(err)
	}
	return s, e
}

// TestDecodeEffectsRejectsDamage pins the wire validation of the effect
// table: a valid table survives the trip exactly, and a table naming an
// unknown fault kind, a check outside the table (or a negative one), checks
// out of order within a component, or an id count that disagrees with the
// component lengths fails to decode with an error.
func TestDecodeEffectsRejectsDamage(t *testing.T) {
	s, e := effectsFixture(t)
	read := func(e *Effects) (*Effects, error) {
		return DecodeEffects(wire.NewReader(AppendEffects(nil, e)), e.checks)
	}
	got, err := read(e)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, e) {
		t.Fatal("the effect table changed on the wire")
	}
	if err := got.CheckSchedule(s); err != nil {
		t.Fatal(err)
	}
	multi := -1 // a component with two or more checks
	for c := range len(e.start) - 1 {
		if e.start[c+1]-e.start[c] >= 2 {
			multi = c
			break
		}
	}
	if multi < 0 {
		t.Fatal("no component flips two checks")
	}
	for name, mutate := range map[string]func(e *Effects){
		"fault kind":         func(e *Effects) { e.kind[0] = NumFaultKinds },
		"check out of range": func(e *Effects) { e.dets[len(e.dets)-1] = int32(e.checks) },
		"negative check":     func(e *Effects) { e.dets[0] = -1 },
		"checks out of order": func(e *Effects) {
			a := e.start[multi]
			e.dets[a], e.dets[a+1] = e.dets[a+1], e.dets[a]
		},
		"id count": func(e *Effects) { e.dets = append(e.dets, 0) },
	} {
		bad := &Effects{checks: e.checks, kind: slices.Clone(e.kind), comp: slices.Clone(e.comp), start: slices.Clone(e.start),
			dets: slices.Clone(e.dets), obs: slices.Clone(e.obs)}
		mutate(bad)
		if _, err := read(bad); err == nil {
			t.Errorf("%s: a damaged effect table decoded", name)
		}
	}
}
