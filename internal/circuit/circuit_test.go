package circuit

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"tiscc/internal/grid"
)

func sampleCircuit() *Circuit {
	return &Circuit{Events: []Event{
		{Gate: PrepareZ, S1: grid.Site{R: 0, C: 2}, Start: 0, Dur: 10_000, Record: -1},
		{Gate: ZPi4, S1: grid.Site{R: 0, C: 2}, Start: 10_000, Dur: 3_000, Record: -1},
		{Gate: Move, S1: grid.Site{R: 0, C: 3}, S2: grid.Site{R: 1, C: 4}, Start: 0, Dur: 210_000, Record: -1, ViaJunction: true},
		{Gate: ZZ, S1: grid.Site{R: 0, C: 2}, S2: grid.Site{R: 0, C: 3}, Start: 13_000, Dur: 2_000_000, Record: -1},
		{Gate: MeasureZ, S1: grid.Site{R: 0, C: 2}, Start: 2_013_000, Dur: 120_000, Record: 7},
	}}
}

func TestDuration(t *testing.T) {
	c := sampleCircuit()
	if d := c.Duration(); d != 2_133_000 {
		t.Fatalf("duration = %d", d)
	}
}

func TestNumRecords(t *testing.T) {
	if n := sampleCircuit().NumRecords(); n != 8 {
		t.Fatalf("records = %d", n)
	}
}

func TestSites(t *testing.T) {
	s := sampleCircuit().Sites()
	if len(s) != 3 {
		t.Fatalf("sites = %v", s)
	}
	for i := 1; i < len(s); i++ {
		if s[i-1].R > s[i].R || (s[i-1].R == s[i].R && s[i-1].C >= s[i].C) {
			t.Fatal("sites not sorted")
		}
	}
}

func TestActiveSiteTime(t *testing.T) {
	c := sampleCircuit()
	want := int64(10_000 + 3_000 + 2*210_000 + 2*2_000_000 + 120_000)
	if got := c.ActiveSiteTime(); got != want {
		t.Fatalf("active site time = %d, want %d", got, want)
	}
}

func TestGateCounts(t *testing.T) {
	counts := sampleCircuit().GateCounts()
	if counts[ZZ] != 1 || counts[Move] != 1 || counts[PrepareZ] != 1 {
		t.Fatalf("counts = %v", counts)
	}
}

func TestRoundTrip(t *testing.T) {
	c := sampleCircuit()
	parsed, err := Parse(c.String())
	if err != nil {
		t.Fatal(err)
	}
	if len(parsed.Events) != len(c.Events) {
		t.Fatalf("parsed %d events", len(parsed.Events))
	}
	for i := range c.Events {
		if parsed.Events[i] != c.Events[i] {
			t.Fatalf("event %d: %+v != %+v", i, parsed.Events[i], c.Events[i])
		}
	}
}

func TestParseComments(t *testing.T) {
	text := "# a comment\n\nPrepare_Z 0.2 t=0 d=10000\n"
	c, err := Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Events) != 1 {
		t.Fatalf("events = %d", len(c.Events))
	}
}

func TestParseErrors(t *testing.T) {
	for _, bad := range []string{
		"Prepare_Z xyz t=0 d=1",
		"ZZ 0.2 t=0 d=1",        // missing second site
		"Prepare_Z 0.2 q=3",     // unknown field
		"Prepare_Z 0.2 t=x d=1", // bad time
		"ZZ 0.1",                // truncated: second site missing
		"Move 0.1",              // truncated: destination missing
		"Prepare_Z",             // truncated: no site at all
		// Trailing garbage in a field.
		"Prepare_Z 0.2xyz t=5abc d=7zz",
		"Prepare_Z 0.2xyz t=5 d=7",
		"Prepare_Z 0.2 t=5abc d=7",
		"Prepare_Z 0.2 t=5 d=7zz",
		"Measure_Z 1.2.3 m=4",
		"Measure_Z 1.2 t=0 d=1 m=4q",
		"Measure_Z 1.2.3 m=4q",
		"ZZ 0.1 0.3x t=0 d=1",
		// Unknown gate names.
		"Bogus 0.2 t=0 d=1",
		"prepare_z 0.2 t=0 d=1",
		"Gate(3) 0.2 t=0 d=1",
	} {
		_, err := Parse("# header\n" + bad)
		if err == nil {
			t.Errorf("no error for %q", bad)
		} else if !strings.HasPrefix(err.Error(), "line 2: ") {
			t.Errorf("%q: error %q does not name line 2", bad, err)
		}
	}
}

func TestSortByTimeStable(t *testing.T) {
	c := &Circuit{Events: []Event{
		{Gate: ZPi4, S1: grid.Site{R: 0, C: 2}, Start: 5, Record: -1},
		{Gate: ZPi2, S1: grid.Site{R: 0, C: 2}, Start: 5, Record: -1},
		{Gate: XPi2, S1: grid.Site{R: 0, C: 2}, Start: 1, Record: -1},
	}}
	v := c.TimeOrdered()
	got := make([]Gate, v.Len())
	for k := range got {
		e, _ := v.At(k)
		got[k] = e.Gate
	}
	if got[0] != XPi2 || got[1] != ZPi4 || got[2] != ZPi2 {
		t.Fatalf("sort wrong: %v", got)
	}
}

// TestGateNames checks that every native gate round-trips through its
// name, that no two gates share one, and that a value outside the gate set
// names itself by number rather than as a gate.
func TestGateNames(t *testing.T) {
	seen := map[string]Gate{}
	for g := range NumGates {
		name := g.String()
		if name == "" || strings.HasPrefix(name, "Gate(") {
			t.Fatalf("gate %d has no name", g)
		}
		if other, dup := seen[name]; dup {
			t.Fatalf("gates %d and %d share the name %q", other, g, name)
		}
		seen[name] = g
		if back, ok := ParseGate(name); !ok || back != g {
			t.Fatalf("ParseGate(%q) = %d, %v; want %d", name, back, ok, g)
		}
	}
	if s := NumGates.String(); s != fmt.Sprintf("Gate(%d)", NumGates) {
		t.Fatalf("out-of-range gate prints as %q", s)
	}
	if _, ok := ParseGate("Gate(3)"); ok {
		t.Fatal("ParseGate accepted a numbered non-gate")
	}
}

// TestEventLayout pins the event's size: 56 bytes with no pointer, so event
// blocks cost no write barriers and no collector scan.
func TestEventLayout(t *testing.T) {
	if size := unsafe.Sizeof(Event{}); size != 56 {
		t.Fatalf("Event is %d bytes, want 56", size)
	}
	var pointerFree func(reflect.Type) bool
	pointerFree = func(ty reflect.Type) bool {
		switch ty.Kind() {
		case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
			return true
		case reflect.Struct:
			for i := range ty.NumField() {
				if !pointerFree(ty.Field(i).Type) {
					return false
				}
			}
			return true
		}
		return false
	}
	if !pointerFree(reflect.TypeOf(Event{})) {
		t.Fatal("Event holds a pointer")
	}
}

// TestParseUnknownGate checks that an unknown gate name is rejected at
// parse time, naming its line and the name.
func TestParseUnknownGate(t *testing.T) {
	_, err := Parse("Prepare_Z 0.2 t=0 d=1\nRotate 0.2 t=1 d=1\n")
	if err == nil || err.Error() != `line 2: unknown gate "Rotate"` {
		t.Fatalf("error %v", err)
	}
}

func TestTwoQubitClassification(t *testing.T) {
	if !ZZ.TwoQubit() || !Move.TwoQubit() || MeasureZ.TwoQubit() {
		t.Fatal("TwoQubit wrong")
	}
}

func TestStringFormat(t *testing.T) {
	c := sampleCircuit()
	s := c.String()
	if !strings.Contains(s, "Measure_Z 0.2 t=2013000 d=120000 m=7") {
		t.Fatalf("serialization missing measurement line:\n%s", s)
	}
	if !strings.Contains(s, "Move 0.3 1.4 t=0 d=210000 J") {
		t.Fatalf("serialization missing junction move:\n%s", s)
	}
}
