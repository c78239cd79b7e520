package circuit_test

import (
	"cmp"
	"encoding/binary"
	"math"
	"slices"
	"testing"

	"tiscc/internal/circuit"
	"tiscc/internal/core"
	"tiscc/internal/hardware"
	"tiscc/internal/pauli"
)

// memoryText compiles a distance-3, three-round memory experiment and
// returns its textual circuit form: a realistic parser input covering
// preparation, movement, ZZ, rotations and measurement lines.
func memoryText(f *testing.F) string {
	c := core.NewCompiler(5, 6, hardware.Default())
	lq, err := c.NewLogicalQubit(3, 3, core.Cell{R: 1, C: 1})
	if err != nil {
		f.Fatal(err)
	}
	lq.TransversalPrepareZ()
	if _, err := lq.Idle(3); err != nil {
		f.Fatal(err)
	}
	if _, err := lq.TransversalMeasure(pauli.Z); err != nil {
		f.Fatal(err)
	}
	return c.Build().String()
}

// FuzzParseCircuit feeds arbitrary text to circuit.Parse, which must return
// an error rather than panic. Text it accepts must be a fixed point of the
// String/Parse round trip after one normalization, and holds only native
// gates: each has a hardware duration, so lowering or timing parsed text
// never meets an unknown gate.
func FuzzParseCircuit(f *testing.F) {
	f.Add(memoryText(f))
	for _, s := range []string{"ZZ 0.1", "Move 0.1", "Prepare_Z", "Move 0.3 1.4 t=0 d=210000 J",
		"Prepare_Z 0.2xyz t=5abc d=7zz", "Measure_Z 1.2.3 m=4q", "Rotate 0.2 t=0 d=1",
		"Prepare_Z 0.2 t=0 d=1\nGate(2) 0.2 t=1 d=1"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, text string) {
		c, err := circuit.Parse(text)
		if err != nil {
			return
		}
		for _, e := range c.Events {
			if e.Gate >= circuit.NumGates {
				t.Fatalf("parsed a non-gate %v", e.Gate)
			}
			hardware.Default().Duration(e.Gate)
		}
		once := c.String()
		c2, err := circuit.Parse(once)
		if err != nil {
			t.Fatalf("re-parsing serialized circuit: %v\n%s", err, once)
		}
		if twice := c2.String(); twice != once {
			t.Fatalf("round trip not stable:\n%s\nvs\n%s", once, twice)
		}
	})
}

// startsFromBytes decodes a fuzz input into event start times: a byte below
// 0x80 is a small start in [−3, 4] (heavy ties, negatives), any other byte
// is followed by a full little-endian int64.
func startsFromBytes(data []byte) []int64 {
	var starts []int64
	for len(data) > 0 {
		b := data[0]
		data = data[1:]
		if b < 0x80 || len(data) < 8 {
			starts = append(starts, int64(b&7)-3)
			continue
		}
		starts = append(starts, int64(binary.LittleEndian.Uint64(data)))
		data = data[8:]
	}
	return starts
}

// startsToBytes is the inverse of startsFromBytes, writing every start in
// full.
func startsToBytes(starts []int64) []byte {
	var out []byte
	for _, s := range starts {
		out = binary.LittleEndian.AppendUint64(append(out, 0xff), uint64(s))
	}
	return out
}

// gather reads a view's events in time order, checking each event's
// emission index against its Record (the tests set Record to the input
// position).
func gather(t *testing.T, v circuit.View) []circuit.Event {
	t.Helper()
	out := make([]circuit.Event, v.Len())
	for k := range out {
		e, at := v.At(k)
		if int(e.Record) != at {
			t.Fatalf("view position %d: emission index %d, event %d", k, at, e.Record)
		}
		out[k] = *e
	}
	return out
}

// checkSortByTime compares TimeOrdered, TimeOrder and SortedByTime (on one
// slice and on blocks) with the stable-sort oracle element for element.
// Each event's Record is its input position, so equal events are told
// apart, any tie reordering shows, and a view's emission indices are
// checked too.
func checkSortByTime(t *testing.T, starts []int64) {
	t.Helper()
	in := make([]circuit.Event, len(starts))
	for i, s := range starts {
		in[i] = circuit.Event{Gate: circuit.ZPi2, Start: s, Dur: int64(i % 5), Record: int32(i)}
	}
	want := slices.Clone(in)
	slices.SortStableFunc(want, func(a, b circuit.Event) int { return cmp.Compare(a.Start, b.Start) })
	orig := slices.Clone(in)
	if got := circuit.SortedByTime(in); !slices.Equal(got, want) {
		t.Fatalf("SortedByTime(%v) differs from the stable sort", starts)
	}
	if !slices.Equal(in, orig) {
		t.Fatalf("SortedByTime modified its input")
	}
	// The same events in blocks of sizes 0, 1, 2, …, as a builder holds them.
	var blocks [][]circuit.Event
	for rest, size := in, 0; len(rest) > 0 || size == 0; size++ {
		k := min(size, len(rest))
		blocks = append(blocks, rest[:k])
		rest = rest[k:]
	}
	if got := circuit.SortedByTime(blocks...); !slices.Equal(got, want) {
		t.Fatalf("SortedByTime over %d blocks (%v) differs from the stable sort", len(blocks), starts)
	}
	if got := gather(t, circuit.TimeOrder(blocks...)); !slices.Equal(got, want) {
		t.Fatalf("TimeOrder over %d blocks (%v) differs from the stable sort", len(blocks), starts)
	}
	v := circuit.TimeOrder(blocks...)
	var emitted []circuit.Event
	for _, b := range v.Blocks() {
		emitted = append(emitted, b...)
	}
	if !slices.Equal(emitted, in) {
		t.Fatalf("TimeOrder(%v).Blocks is not the emission order", starts)
	}
	c := &circuit.Circuit{Events: in}
	if got := gather(t, c.TimeOrdered()); !slices.Equal(got, want) {
		t.Fatalf("TimeOrdered(%v) differs from the stable sort", starts)
	}
	if !slices.Equal(in, orig) {
		t.Fatalf("TimeOrdered modified the circuit")
	}
}

// sortCorpus returns start-time lists covering the radix sort's edge cases:
// empty and single inputs, heavy ties, negative and extreme starts, already
// sorted and reversed runs.
func sortCorpus() [][]int64 {
	corpus := [][]int64{
		nil,
		{7},
		{5, 5, 1, 5, 1, 1, 5},
		{0, -1, 1, math.MinInt64, math.MaxInt64, -1, 0, math.MinInt64, math.MaxInt64, 1},
		{math.MaxInt64, math.MinInt64 + 1, -256, 255, 256, -255, 1 << 40, -(1 << 40)},
	}
	sorted := make([]int64, 300)
	reversed := make([]int64, 300)
	ties := make([]int64, 300)
	for i := range sorted {
		sorted[i] = int64(i/3) * 1000
		reversed[i] = int64(300-i) << 20
		ties[i] = int64(i*7919%5) - 2
	}
	return append(corpus, sorted, reversed, ties)
}

// TestSortByTimeMatchesStable checks the radix event sort against the
// stable-sort oracle on the edge-case corpus and on a real compiled circuit
// shuffled out of time order.
func TestSortByTimeMatchesStable(t *testing.T) {
	for _, starts := range sortCorpus() {
		checkSortByTime(t, starts)
	}
	c := core.NewCompiler(5, 6, hardware.Default())
	lq, err := c.NewLogicalQubit(3, 3, core.Cell{R: 1, C: 1})
	if err != nil {
		t.Fatal(err)
	}
	lq.TransversalPrepareZ()
	if _, err := lq.Idle(3); err != nil {
		t.Fatal(err)
	}
	ev := c.Build().Events
	starts := make([]int64, len(ev))
	for i := range ev {
		// A fixed interleaving of the time-ordered stream: many equal
		// starts, far out of order.
		starts[i] = ev[(i*7919)%len(ev)].Start
	}
	checkSortByTime(t, starts)
}

// FuzzSortByTime checks the radix event sort against the stable-sort oracle
// on arbitrary start times (see startsFromBytes).
func FuzzSortByTime(f *testing.F) {
	for _, starts := range sortCorpus() {
		f.Add(startsToBytes(starts))
	}
	f.Add([]byte{0, 1, 2, 3, 0, 1, 2, 3, 7, 7, 7, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		checkSortByTime(t, startsFromBytes(data))
	})
}
