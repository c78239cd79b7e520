// Package grid implements the GridManager of TISCC Sec 3.1: an arbitrarily
// large rectangular grid of trapped-ion trapping zones built from the
// repeating unit {M,O,M,J,M,O,M} — one junction with a rightward and a
// downward straight segment of three zones each.
//
// Fine coordinates: junctions sit at (4a, 4b); the horizontal arm of cell
// (a, b) occupies (4a, 4b+1..4b+3) as M,O,M; the vertical arm occupies
// (4a+1..4a+3, 4b) as M,O,M. Positions with both coordinates ≢ 0 (mod 4)
// hold no trap.
//
// Layout conventions used by the compiler (see DESIGN.md):
//   - data qubits rest at horizontal-arm O sites (4R, 4C+2), where all their
//     single-qubit gates are applied in place;
//   - syndrome measure qubits rest at vertical-arm M sites and interact by
//     moving to the M "seats" adjacent to a data qubit's O site;
//   - ions never rest at junctions; traversing one is emitted as a
//     two-junction-time Move between the flanking zones (paper Sec 3.2).
package grid

import (
	"fmt"
	"strconv"
	"strings"
)

// SiteType classifies a fine-grid position.
type SiteType uint8

// Site types of the repeating unit; None marks positions without a trap.
const (
	None SiteType = iota
	Memory
	Operation
	Junction
)

func (t SiteType) String() string {
	switch t {
	case Memory:
		return "M"
	case Operation:
		return "O"
	case Junction:
		return "J"
	}
	return "."
}

// Site is a fine-grid coordinate (row, column).
type Site struct {
	R, C int
}

func (s Site) String() string { return fmt.Sprintf("%d.%d", s.R, s.C) }

// ParseSite parses the "r.c" form produced by Site.String. Both parts must
// be whole integers: "0.2xyz" and "1.2.3" are errors.
func ParseSite(str string) (Site, error) {
	rs, cs, ok := strings.Cut(str, ".")
	r, errR := strconv.Atoi(rs)
	c, errC := strconv.Atoi(cs)
	if !ok || errR != nil || errC != nil {
		return Site{}, fmt.Errorf("grid: bad site %q: want integers r.c", str)
	}
	return Site{r, c}, nil
}

// TypeOf returns the site type at a position (bounds-independent).
func TypeOf(s Site) SiteType {
	rm, cm := mod4(s.R), mod4(s.C)
	switch {
	case rm == 0 && cm == 0:
		return Junction
	case rm == 0:
		if cm == 2 {
			return Operation
		}
		return Memory
	case cm == 0:
		if rm == 2 {
			return Operation
		}
		return Memory
	}
	return None
}

func mod4(x int) int { return ((x % 4) + 4) % 4 }

// Grid is the GridManager geometry: CellRows × CellCols repeating units,
// with the closing rails on the right and bottom edges included.
type Grid struct {
	CellRows, CellCols int
}

// New returns a grid of the given size in repeating units.
func New(cellRows, cellCols int) *Grid {
	if cellRows < 1 || cellCols < 1 {
		panic("grid: size must be positive")
	}
	return &Grid{CellRows: cellRows, CellCols: cellCols}
}

// MaxR and MaxC are the largest valid fine coordinates.
func (g *Grid) MaxR() int { return 4 * g.CellRows }
func (g *Grid) MaxC() int { return 4 * g.CellCols }

// NumSites returns the number of fine-grid positions in the grid rectangle,
// trap or not: the range of Index.
func (g *Grid) NumSites() int { return (g.MaxR() + 1) * (g.MaxC() + 1) }

// Index returns the dense row-major index of an in-bounds position, so
// per-site state can live in a slice of NumSites entries.
func (g *Grid) Index(s Site) int { return s.R*(g.MaxC()+1) + s.C }

// InBounds reports whether s lies inside the grid rectangle.
func (g *Grid) InBounds(s Site) bool {
	return s.R >= 0 && s.R <= g.MaxR() && s.C >= 0 && s.C <= g.MaxC()
}

// Valid reports whether s is an existing trap site of the grid.
func (g *Grid) Valid(s Site) bool { return g.InBounds(s) && TypeOf(s) != None }

// Neighbors returns the rail-adjacent valid sites of s.
func (g *Grid) Neighbors(s Site) []Site {
	cand := []Site{{s.R - 1, s.C}, {s.R + 1, s.C}, {s.R, s.C - 1}, {s.R, s.C + 1}}
	var out []Site
	for _, n := range cand {
		if g.Valid(n) {
			out = append(out, n)
		}
	}
	return out
}

// DataSite returns the canonical data-qubit rest site of cell (a, b): the
// O position at the middle of the cell's horizontal arm.
func DataSite(a, b int) Site { return Site{4 * a, 4*b + 2} }

// Adjacent reports whether a and b are rail neighbors.
func Adjacent(a, b Site) bool {
	dr, dc := a.R-b.R, a.C-b.C
	if dr < 0 {
		dr = -dr
	}
	if dc < 0 {
		dc = -dc
	}
	return dr+dc == 1
}

// CommonJunction returns the junction adjacent to both a and b, if any.
// This identifies hops emitted as "Move a b" through a junction.
func CommonJunction(a, b Site) (Site, bool) {
	for _, ja := range []Site{{a.R - 1, a.C}, {a.R + 1, a.C}, {a.R, a.C - 1}, {a.R, a.C + 1}} {
		if TypeOf(ja) != Junction {
			continue
		}
		if Adjacent(ja, b) {
			return ja, true
		}
	}
	return Site{}, false
}

// Path returns a shortest rail path from a to b (inclusive of both ends)
// using breadth-first search. Junction sites may appear as interior points
// but never as endpoints. blocked reports sites that must be avoided
// (occupied by resting ions); it may be nil.
func (g *Grid) Path(a, b Site, blocked func(Site) bool) ([]Site, error) {
	if !g.Valid(a) || !g.Valid(b) {
		return nil, fmt.Errorf("grid: path endpoints invalid: %v -> %v", a, b)
	}
	if TypeOf(a) == Junction || TypeOf(b) == Junction {
		return nil, fmt.Errorf("grid: path endpoints may not be junctions: %v -> %v", a, b)
	}
	if a == b {
		return []Site{a}, nil
	}
	prev := map[Site]Site{a: a}
	queue := []Site{a}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, n := range g.Neighbors(cur) {
			if _, seen := prev[n]; seen {
				continue
			}
			if n != b && blocked != nil && blocked(n) && TypeOf(n) != Junction {
				continue
			}
			prev[n] = cur
			if n == b {
				var path []Site
				for s := b; ; s = prev[s] {
					path = append(path, s)
					if s == a {
						break
					}
				}
				for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
					path[i], path[j] = path[j], path[i]
				}
				return path, nil
			}
			queue = append(queue, n)
		}
	}
	return nil, fmt.Errorf("grid: no path from %v to %v", a, b)
}
