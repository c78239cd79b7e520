package decoder

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// The DEM reader is the test side of WriteDEM: TestDEMRoundTrip parses the
// text form back to check the export without Stim.

// DEMMechanism is one parsed error line: a firing probability, the sorted
// detector ids it flips, and whether it flips the logical observable.
type DEMMechanism struct {
	P    float64
	Dets []int32
	Obs  bool
}

// DEM is a parsed detector error model: the mechanism list in file order,
// the per-detector coordinate declarations, and the declared observable
// ids. Observables counts the distinct logical_observable declarations
// (len(ObservableIDs)); consumers sizing an id-indexed observable frame
// should use the ids themselves, which need not be dense. It is the read
// side of WriteDEM, so exported models can be round-trip checked without
// Stim. Note the declaration contract is stricter than Stim's (where
// detector coordinates are optional annotations): every D<i>/L0 a
// mechanism references must be declared, as WriteDEM always does —
// annotation-free external models are rejected rather than guessed at.
type DEM struct {
	Mechanisms    []DEMMechanism
	Coords        map[int32][4]int // detector id → (face row, face col, round, type)
	ObservableIDs []int32          // declared logical_observable ids, sorted ascending
	Observables   int              // == len(ObservableIDs)
}

// NumDetectors returns the number of declared detectors.
func (m *DEM) NumDetectors() int { return len(m.Coords) }

// ParseDEM reads the Stim-compatible detector error model text form emitted
// by WriteDEM: error(p) lines with D<i> targets and an optional trailing
// L0, detector(...) coordinate declarations, and logical_observable
// declarations. Comment lines (#) and blank lines are skipped; malformed
// lines are reported with their content.
func ParseDEM(r io.Reader) (*DEM, error) {
	out := &DEM{Coords: map[int32][4]int{}}
	obsSeen := map[int32]bool{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case line == "" || strings.HasPrefix(line, "#"):
		case strings.HasPrefix(line, "error("):
			close := strings.IndexByte(line, ')')
			if close < 0 {
				return nil, fmt.Errorf("decoder: malformed error line %q", line)
			}
			p, err := strconv.ParseFloat(line[len("error("):close], 64)
			if err != nil {
				return nil, fmt.Errorf("decoder: bad probability in %q: %v", line, err)
			}
			if math.IsNaN(p) || p < 0 || p > 1 {
				return nil, fmt.Errorf("decoder: probability outside [0, 1] in %q", line)
			}
			m := DEMMechanism{P: p}
			for _, tok := range strings.Fields(line[close+1:]) {
				switch {
				case strings.HasPrefix(tok, "D"):
					id, err := strconv.ParseInt(tok[1:], 10, 32)
					if err != nil || id < 0 {
						return nil, fmt.Errorf("decoder: bad detector target %q in %q", tok, line)
					}
					m.Dets = append(m.Dets, int32(id))
				case tok == "L0":
					m.Obs = true
				default:
					return nil, fmt.Errorf("decoder: unknown target %q in %q", tok, line)
				}
			}
			// Normalize to the sorted form WriteDEM emits; duplicate targets
			// have no meaningful parity semantics and are rejected.
			sortedDetIDs(m.Dets)
			for i := 1; i < len(m.Dets); i++ {
				if m.Dets[i] == m.Dets[i-1] {
					return nil, fmt.Errorf("decoder: duplicate detector target D%d in %q", m.Dets[i], line)
				}
			}
			out.Mechanisms = append(out.Mechanisms, m)
		case strings.HasPrefix(line, "detector("):
			close := strings.IndexByte(line, ')')
			if close < 0 {
				return nil, fmt.Errorf("decoder: malformed detector line %q", line)
			}
			parts := strings.Split(line[len("detector("):close], ",")
			if len(parts) != 4 {
				return nil, fmt.Errorf("decoder: want 4 detector coordinates in %q", line)
			}
			var coords [4]int
			for i, p := range parts {
				v, err := strconv.Atoi(strings.TrimSpace(p))
				if err != nil {
					return nil, fmt.Errorf("decoder: bad coordinate in %q: %v", line, err)
				}
				coords[i] = v
			}
			rest := strings.TrimSpace(line[close+1:])
			if !strings.HasPrefix(rest, "D") {
				return nil, fmt.Errorf("decoder: detector declaration without target: %q", line)
			}
			id, err := strconv.ParseInt(rest[1:], 10, 32)
			if err != nil || id < 0 {
				return nil, fmt.Errorf("decoder: bad detector id in %q", line)
			}
			if _, dup := out.Coords[int32(id)]; dup {
				return nil, fmt.Errorf("decoder: duplicate declaration of D%d", id)
			}
			out.Coords[int32(id)] = coords
		case strings.HasPrefix(line, "logical_observable"):
			fields := strings.Fields(line)
			if len(fields) != 2 || len(fields[1]) < 2 || fields[1][0] != 'L' {
				return nil, fmt.Errorf("decoder: malformed observable declaration %q", line)
			}
			id, err := strconv.ParseInt(fields[1][1:], 10, 32)
			if err != nil || id < 0 {
				return nil, fmt.Errorf("decoder: bad observable id in %q", line)
			}
			// Observables are counted by declared id: a re-declaration would
			// silently inflate the count (and with it every consumer's
			// observable-frame width), so it is rejected outright.
			if obsSeen[int32(id)] {
				return nil, fmt.Errorf("decoder: duplicate declaration of L%d", id)
			}
			obsSeen[int32(id)] = true
			out.ObservableIDs = append(out.ObservableIDs, int32(id))
			out.Observables++
		default:
			return nil, fmt.Errorf("decoder: unknown DEM line %q", line)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	// Every mechanism target must reference a declared detector (an error
	// line naming an undeclared D<i> would otherwise flow into decoder
	// graphs as a phantom node with no coordinates) and a declared
	// observable (a mechanism flipping L0 in a model that never declares it
	// would escape any consumer sizing its frame from the declarations).
	for _, m := range out.Mechanisms {
		for _, di := range m.Dets {
			if _, ok := out.Coords[di]; !ok {
				return nil, fmt.Errorf("decoder: mechanism targets undeclared detector D%d", di)
			}
		}
		if m.Obs && !obsSeen[0] {
			return nil, fmt.Errorf("decoder: mechanism targets undeclared observable L0")
		}
	}
	sortedDetIDs(out.ObservableIDs)
	return out, nil
}

// sortedDetIDs returns det ids sorted ascending (symptoms are kept in a
// canonical order so edge keys and DEM output are deterministic).
func sortedDetIDs(ids []int32) []int32 {
	slices.Sort(ids)
	return ids
}

// TestSortedDetIDs covers the canonical-ordering helper.
func TestSortedDetIDs(t *testing.T) {
	ids := []int32{5, 1, 3}
	got := sortedDetIDs(ids)
	if !slices.IsSorted(got) {
		t.Fatalf("not sorted: %v", got)
	}
}

// TestParseDEMRejectsMalformed covers the parser's error paths.
func TestParseDEMRejectsMalformed(t *testing.T) {
	bad := []string{
		"error(0.1 D0",
		"error(zzz) D0",
		"error(-0.3) D0",
		"error(1.5) D0",
		"error(NaN) D0",
		"error(0.1) Q3",
		"error(0.1) Dx",
		"detector(1, 2, 3) D0",
		"detector(1, 2, 3, a) D0",
		"detector(1, 2, 3, 4)",
		"detector(1, 2, 3, 4) D0\ndetector(0, 0, 0, 0) D0",
		"detector(1, 2, 3, 4) D-1",
		"error(0.1) D-2",
		"error(0.1) D0 D0",
		"logical_observableXYZ",
		"logical_observable L0 L1",
		"logical_observable Lx",
		"logical_observable L-1",
		"wibble",
		// Re-declared observable ids would silently inflate DEM.Observables.
		"logical_observable L0\nlogical_observable L0",
		"logical_observable L2\ndetector(0, 0, 0, 0) D0\nlogical_observable L2",
		// Mechanism targets must reference declared detectors/observables.
		"error(0.1) D0",
		"detector(0, 0, 0, 0) D0\nerror(0.1) D0 D1 L0\nlogical_observable L0",
		"detector(0, 0, 0, 0) D0\nerror(0.1) D0 L0",
		"detector(0, 0, 0, 0) D0\nerror(0.1) D0 L0\nlogical_observable L1",
	}
	for _, text := range bad {
		if _, err := ParseDEM(strings.NewReader(text)); err == nil {
			t.Fatalf("ParseDEM accepted %q", text)
		}
	}
}

// TestParseDEMObservableDedupe pins the observable-declaration accounting:
// distinct ids accumulate, and a model with no mechanisms or detectors but
// several observables parses to the exact distinct-id count.
func TestParseDEMObservableDedupe(t *testing.T) {
	dem, err := ParseDEM(strings.NewReader("logical_observable L7\nlogical_observable L0\nlogical_observable L1\n"))
	if err != nil {
		t.Fatal(err)
	}
	if dem.Observables != 3 {
		t.Fatalf("Observables = %d, want 3", dem.Observables)
	}
	if !equalIDs(dem.ObservableIDs, []int32{0, 1, 7}) {
		t.Fatalf("ObservableIDs = %v, want sorted [0 1 7]", dem.ObservableIDs)
	}
	if _, err := ParseDEM(strings.NewReader("logical_observable L7\nlogical_observable L1\nlogical_observable L7\n")); err == nil {
		t.Fatal("ParseDEM accepted a re-declared observable id")
	} else if !strings.Contains(err.Error(), "duplicate declaration of L7") {
		t.Fatalf("unexpected error for duplicate observable: %v", err)
	}
}

// FuzzParseDEM asserts the parser never panics on arbitrary input and that
// every accepted input re-serializes to a model it accepts again with
// identical mechanisms, detector declarations and observable count
// (parse → print → parse is the identity).
func FuzzParseDEM(f *testing.F) {
	f.Add("# comment\nerror(1.3e-05) D0 D4 L0\ndetector(0, -1, 2, 0) D0\ndetector(1, 1, 0, 1) D4\nlogical_observable L0\n")
	f.Add("detector(2, 2, 0, 0) D1\nerror(0.5) D1\n")
	f.Add("detector(1, 2, 3, 1) D0\n")
	f.Add("logical_observable L0\nlogical_observable L3\n")
	f.Fuzz(func(t *testing.T, text string) {
		dem, err := ParseDEM(strings.NewReader(text))
		if err != nil {
			return
		}
		var sb strings.Builder
		for id, c := range dem.Coords {
			fmt.Fprintf(&sb, "detector(%d, %d, %d, %d) D%d\n", c[0], c[1], c[2], c[3], id)
		}
		for _, id := range dem.ObservableIDs {
			fmt.Fprintf(&sb, "logical_observable L%d\n", id)
		}
		for _, m := range dem.Mechanisms {
			fmt.Fprintf(&sb, "error(%g)", m.P)
			for _, di := range m.Dets {
				fmt.Fprintf(&sb, " D%d", di)
			}
			if m.Obs {
				sb.WriteString(" L0")
			}
			sb.WriteString("\n")
		}
		again, err := ParseDEM(strings.NewReader(sb.String()))
		if err != nil {
			t.Fatalf("re-parse of printed model failed: %v", err)
		}
		if len(again.Mechanisms) != len(dem.Mechanisms) {
			t.Fatalf("mechanism count changed across print/parse: %d vs %d",
				len(again.Mechanisms), len(dem.Mechanisms))
		}
		if again.Observables != dem.Observables || again.NumDetectors() != dem.NumDetectors() {
			t.Fatalf("declarations changed across print/parse: %d/%d observables, %d/%d detectors",
				again.Observables, dem.Observables, again.NumDetectors(), dem.NumDetectors())
		}
		if !equalIDs(again.ObservableIDs, dem.ObservableIDs) {
			t.Fatalf("observable ids changed across print/parse: %v vs %v",
				again.ObservableIDs, dem.ObservableIDs)
		}
		for i, m := range dem.Mechanisms {
			g := again.Mechanisms[i]
			if g.P != m.P || g.Obs != m.Obs || !equalIDs(g.Dets, m.Dets) {
				t.Fatalf("mechanism %d changed across print/parse: %+v vs %+v", i, g, m)
			}
		}
	})
}
