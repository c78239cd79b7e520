// Package circuit defines the time-resolved hardware circuit representation
// emitted by the compiler (TISCC Sec 3.2/3.4): a list of native trapped-ion
// gate events, each bound to one or two trapping-zone sites with an explicit
// start time and duration. The textual form round-trips through Parse so the
// verification simulator (internal/orqcs) can consume compiler output
// exactly the way ORQCS consumes TISCC output in the paper.
package circuit

import (
	"bufio"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"tiscc/internal/grid"
)

// Gate is a member of the native trapped-ion gate set (paper Table 5): a
// small integer, so an Event holds no pointer. Its text form comes from one
// name table (gateNames) behind String, ParseGate and every error message.
type Gate uint8

// Native gate set. Angles follow the paper's P_θ = exp(−iPθ) convention with
// θ ∈ {π/2, ±π/4, ±π/8}; ZZ is (ZZ)_{π/4}. Junction traversals are emitted
// as Move between the two zones flanking the junction.
const (
	PrepareZ Gate = iota
	MeasureZ
	XPi2
	XPi4
	XmPi4
	YPi2
	YPi4
	YmPi4
	ZPi2
	ZPi4
	ZmPi4
	ZPi8
	ZmPi8
	ZZ
	Move

	// Explicit well operations (paper future work (i)(a): "a more realistic
	// trapped-ion instruction set (including explicit split, merge, swap,
	// and cool operations)"). When the hardware model runs in explicit-well
	// mode, each two-qubit interaction is emitted as MergeWells → ZZ (bare
	// gate time) → SplitWells → Cool instead of a single 2 ms ZZ.
	MergeWells
	SplitWells
	Cool

	// NumGates is the number of native gates: every Gate below it is one.
	NumGates
)

// gateNames is the text form of every gate, as String prints it and
// ParseGate reads it.
var gateNames = [NumGates]string{
	PrepareZ:   "Prepare_Z",
	MeasureZ:   "Measure_Z",
	XPi2:       "X_pi/2",
	XPi4:       "X_pi/4",
	XmPi4:      "X_-pi/4",
	YPi2:       "Y_pi/2",
	YPi4:       "Y_pi/4",
	YmPi4:      "Y_-pi/4",
	ZPi2:       "Z_pi/2",
	ZPi4:       "Z_pi/4",
	ZmPi4:      "Z_-pi/4",
	ZPi8:       "Z_pi/8",
	ZmPi8:      "Z_-pi/8",
	ZZ:         "ZZ",
	Move:       "Move",
	MergeWells: "Merge_Wells",
	SplitWells: "Split_Wells",
	Cool:       "Cool",
}

// String returns the gate's name in the circuit text form; a value that is
// no native gate prints as Gate(n).
func (g Gate) String() string {
	if g < NumGates {
		return gateNames[g]
	}
	return "Gate(" + strconv.Itoa(int(g)) + ")"
}

// ParseGate returns the native gate with the given name.
func ParseGate(name string) (Gate, bool) {
	for g, n := range gateNames {
		if n == name {
			return Gate(g), true
		}
	}
	return 0, false
}

// TwoQubit reports whether the gate addresses two sites.
func (g Gate) TwoQubit() bool {
	return g == ZZ || g == Move || g == MergeWells || g == SplitWells || g == Cool
}

// Event is a single scheduled hardware operation. Its fields are ordered so
// that it packs into 56 bytes with no pointer: copying events costs no
// write barrier, and the collector never scans an event block.
type Event struct {
	S1    grid.Site
	S2    grid.Site // second site for ZZ and Move
	Start int64     // nanoseconds
	Dur   int64     // nanoseconds
	// Record is the measurement-record index for MeasureZ events, -1
	// otherwise. Record indices are the variables of the outcome formulas
	// attached to compiled operations.
	Record int32
	Gate   Gate
	// ViaJunction marks Move events that traverse a junction (the two sites
	// flank a common junction; time covers two Junction operations).
	ViaJunction bool
}

// End returns the completion time of the event.
func (e Event) End() int64 { return e.Start + e.Dur }

// Circuit is an ordered list of events plus bookkeeping totals.
type Circuit struct {
	Events []Event
}

// Duration returns the makespan of the circuit in nanoseconds.
func (c *Circuit) Duration() int64 {
	var d int64
	for _, e := range c.Events {
		if e.End() > d {
			d = e.End()
		}
	}
	return d
}

// NumRecords returns one past the largest record index used, i.e. the size
// of the record table a simulator must produce.
func (c *Circuit) NumRecords() int32 {
	var n int32
	for _, e := range c.Events {
		if e.Record >= n {
			n = e.Record + 1
		}
	}
	return n
}

// Sites returns the distinct sites touched by the circuit.
func (c *Circuit) Sites() []grid.Site {
	seen := map[grid.Site]bool{}
	var out []grid.Site
	add := func(s grid.Site) {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	for _, e := range c.Events {
		add(e.S1)
		if e.Gate.TwoQubit() {
			add(e.S2)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].R != out[j].R {
			return out[i].R < out[j].R
		}
		return out[i].C < out[j].C
	})
	return out
}

// TimeOrdered returns the circuit's events in time order: ordered by start
// time, ties in emission order (the order of a stable sort). It copies no
// event, and when the events are already in time order it sorts nothing.
func (c *Circuit) TimeOrdered() View { return TimeOrder(c.Events) }

// SortedByTime returns a new slice holding the events of blocks,
// concatenated, ordered by start time with ties in concatenation order: the
// events of TimeOrder(blocks...), gathered.
func SortedByTime(blocks ...[]Event) []Event {
	v := TimeOrder(blocks...)
	out := make([]Event, v.Len())
	for k := range out {
		e, _ := v.At(k)
		out[k] = *e
	}
	return out
}

// View is a time-ordered view of events held in blocks: the events ordered
// by start time, ties in emission order (block by block), read in place.
// It shares the blocks, so they must not change while the view is in use.
type View struct {
	blocks [][]Event
	// keys holds the events' positions in time order; nil when there is one
	// block, already in time order.
	keys []timeKey
	// first[b] is the emission index of block b's first event.
	first []int
	n     int
}

// TimeOrder returns the time-ordered view of the blocks' events.
func TimeOrder(blocks ...[]Event) View {
	v := View{blocks: blocks, first: make([]int, len(blocks))}
	for b, events := range blocks {
		v.first[b] = v.n
		v.n += len(events)
	}
	if len(blocks) > 1 || len(blocks) == 1 && !inTimeOrder(blocks[0]) {
		v.keys = timeOrder(blocks...)
	}
	return v
}

// Len returns the number of events.
func (v *View) Len() int { return v.n }

// At returns the k-th event in time order and its emission index: its
// position in the blocks' concatenation.
func (v *View) At(k int) (*Event, int) {
	if v.keys == nil {
		return &v.blocks[0][k], k
	}
	key := v.keys[k]
	return &v.blocks[key.block][key.index], v.first[key.block] + int(key.index)
}

// Blocks returns the events in emission order, block by block.
func (v *View) Blocks() [][]Event { return v.blocks }

// inTimeOrder reports whether events are ordered by start time.
func inTimeOrder(events []Event) bool {
	for i := 1; i < len(events); i++ {
		if events[i].Start < events[i-1].Start {
			return false
		}
	}
	return true
}

// timeKey is one event's sort key: its start time with the sign bit
// flipped, so that unsigned order is signed order, and its position: the
// block and the index within the block.
type timeKey struct {
	start        uint64
	block, index uint32
}

// timeOrder returns the positions of the blocks' events ordered by start
// time, ties in concatenation order: a stable LSD radix sort of the keys,
// one byte per pass, skipping the bytes on which every key agrees.
func timeOrder(blocks ...[]Event) []timeKey {
	n := 0
	for _, b := range blocks {
		n += len(b)
	}
	a := make([]timeKey, 0, n)
	or, and := uint64(0), ^uint64(0)
	for bi, b := range blocks {
		for i := range b {
			k := uint64(b[i].Start) ^ 1<<63
			a = append(a, timeKey{k, uint32(bi), uint32(i)})
			or |= k
			and &= k
		}
	}
	tmp := make([]timeKey, n)
	for shift := uint(0); shift < 64; shift += 8 {
		if (or^and)>>shift&0xff == 0 {
			continue
		}
		var at [256]int
		for _, k := range a {
			at[k.start>>shift&0xff]++
		}
		sum := 0
		for d, c := range at {
			at[d] = sum
			sum += c
		}
		for _, k := range a {
			d := k.start >> shift & 0xff
			tmp[at[d]] = k
			at[d]++
		}
		a, tmp = tmp, a
	}
	return a
}

// ActiveSiteTime sums duration × sites-involved over all events (the
// "active trapping zone-seconds" numerator of the resource estimator).
func (c *Circuit) ActiveSiteTime() int64 {
	var t int64
	for _, e := range c.Events {
		n := int64(1)
		if e.Gate.TwoQubit() {
			n = 2
		}
		t += n * e.Dur
	}
	return t
}

// GateCounts tallies events per gate name.
func (c *Circuit) GateCounts() map[Gate]int {
	m := map[Gate]int{}
	for _, e := range c.Events {
		m[e.Gate]++
	}
	return m
}

// String renders the circuit in the TISCC-style textual form, one event per
// line:
//
//	<gate> <r.c> [<r.c>] t=<start_ns> d=<dur_ns> [m=<record>] [J]
func (c *Circuit) String() string {
	var sb strings.Builder
	for _, e := range c.Events {
		sb.WriteString(e.Gate.String())
		fmt.Fprintf(&sb, " %s", e.S1)
		if e.Gate.TwoQubit() {
			fmt.Fprintf(&sb, " %s", e.S2)
		}
		fmt.Fprintf(&sb, " t=%d d=%d", e.Start, e.Dur)
		if e.Gate == MeasureZ {
			fmt.Fprintf(&sb, " m=%d", e.Record)
		}
		if e.ViaJunction {
			sb.WriteString(" J")
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// Parse reads the textual form back into a Circuit.
func Parse(text string) (*Circuit, error) {
	c := &Circuit{}
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(nil, 1024*1024) // lines up to 1 MiB; the buffer grows on demand
	line := 0
	for sc.Scan() {
		line++
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 || strings.HasPrefix(fields[0], "#") {
			continue
		}
		g, ok := ParseGate(fields[0])
		if !ok {
			return nil, fmt.Errorf("line %d: unknown gate %q", line, fields[0])
		}
		e := Event{Gate: g, Record: -1}
		nsites := 1
		if g.TwoQubit() {
			nsites = 2
		}
		if len(fields) <= nsites {
			return nil, fmt.Errorf("line %d: %s needs %d site(s), got %d", line, g, nsites, len(fields)-1)
		}
		i := 1
		s1, err := grid.ParseSite(fields[i])
		if err != nil {
			return nil, fmt.Errorf("line %d: %v", line, err)
		}
		e.S1 = s1
		i++
		if g.TwoQubit() {
			s2, err := grid.ParseSite(fields[i])
			if err != nil {
				return nil, fmt.Errorf("line %d: %v", line, err)
			}
			e.S2 = s2
			i++
		}
		for ; i < len(fields); i++ {
			f := fields[i]
			var err error
			switch {
			case strings.HasPrefix(f, "t="):
				e.Start, err = strconv.ParseInt(f[2:], 10, 64)
			case strings.HasPrefix(f, "d="):
				e.Dur, err = strconv.ParseInt(f[2:], 10, 64)
			case strings.HasPrefix(f, "m="):
				var m int64
				m, err = strconv.ParseInt(f[2:], 10, 32)
				e.Record = int32(m)
			case f == "J":
				e.ViaJunction = true
			default:
				return nil, fmt.Errorf("line %d: unknown field %q", line, f)
			}
			if err != nil {
				return nil, fmt.Errorf("line %d: field %q: want a whole integer", line, f)
			}
		}
		c.Events = append(c.Events, e)
	}
	return c, sc.Err()
}
