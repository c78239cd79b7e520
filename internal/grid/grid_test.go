package grid

import "testing"

func TestTypeOf(t *testing.T) {
	cases := []struct {
		s Site
		w SiteType
	}{
		{Site{0, 0}, Junction},
		{Site{0, 1}, Memory},
		{Site{0, 2}, Operation},
		{Site{0, 3}, Memory},
		{Site{0, 4}, Junction},
		{Site{1, 0}, Memory},
		{Site{2, 0}, Operation},
		{Site{3, 0}, Memory},
		{Site{4, 0}, Junction},
		{Site{1, 1}, None},
		{Site{2, 3}, None},
		{Site{5, 4}, Memory},
		{Site{6, 4}, Operation},
	}
	for _, c := range cases {
		if got := TypeOf(c.s); got != c.w {
			t.Errorf("TypeOf(%v) = %v, want %v", c.s, got, c.w)
		}
	}
}

func TestRepeatingUnitCount(t *testing.T) {
	// A 1x1 grid has the closing rails: sites = 4 junctions + 4 arms × 3.
	g := New(1, 1)
	if n := numSites(g); n != 16 {
		t.Fatalf("1x1 grid sites = %d, want 16", n)
	}
	// Adding a cell row adds one junction row (5 sites for 1 cell col) plus
	// two vertical arms (6 sites): the interior repeating unit is the
	// paper's 7-site {M,O,M,J,M,O,M}.
	g2 := New(2, 1)
	if n := numSites(g2); n != 27 {
		t.Fatalf("2x1 grid sites = %d, want 27", n)
	}
	// Closed form: (R+1)(C+1) junctions + arms: R·C interior cells own one
	// horizontal and one vertical arm, plus closing arms on the last row/col.
	big := New(10, 10)
	want := 11*11 + 3*(10*11) + 3*(11*10)
	if n := numSites(big); n != want {
		t.Fatalf("10x10 grid sites = %d, want %d", n, want)
	}
}

// numSites counts the trap sites (M + O + J) of g.
func numSites(g *Grid) int {
	n := 0
	for r := 0; r <= g.MaxR(); r++ {
		for c := 0; c <= g.MaxC(); c++ {
			if TypeOf(Site{r, c}) != None {
				n++
			}
		}
	}
	return n
}

func TestNeighbors(t *testing.T) {
	g := New(2, 2)
	// A junction in the middle has 4 neighbors.
	n := g.Neighbors(Site{4, 4})
	if len(n) != 4 {
		t.Fatalf("junction neighbors = %d, want 4", len(n))
	}
	// A corner junction has 2.
	n = g.Neighbors(Site{0, 0})
	if len(n) != 2 {
		t.Fatalf("corner junction neighbors = %d, want 2", len(n))
	}
	// An O site has 2 (along its arm).
	n = g.Neighbors(Site{0, 2})
	if len(n) != 2 {
		t.Fatalf("O-site neighbors = %d, want 2", len(n))
	}
}

func TestAdjacentAndCommonJunction(t *testing.T) {
	if !Adjacent(Site{0, 1}, Site{0, 2}) || Adjacent(Site{0, 1}, Site{0, 3}) {
		t.Fatal("Adjacent broken")
	}
	j, ok := CommonJunction(Site{0, 3}, Site{0, 5})
	if !ok || j != (Site{0, 4}) {
		t.Fatalf("CommonJunction = %v, %v", j, ok)
	}
	j, ok = CommonJunction(Site{0, 3}, Site{1, 4})
	if !ok || j != (Site{0, 4}) {
		t.Fatalf("CommonJunction around corner = %v, %v", j, ok)
	}
	if _, ok := CommonJunction(Site{0, 1}, Site{0, 5}); ok {
		t.Fatal("CommonJunction false positive")
	}
}

func TestPathStraight(t *testing.T) {
	g := New(2, 2)
	p, err := g.Path(Site{0, 1}, Site{0, 3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(p) != 3 {
		t.Fatalf("path len = %d, want 3", len(p))
	}
}

func TestPathThroughJunction(t *testing.T) {
	g := New(2, 2)
	p, err := g.Path(Site{0, 3}, Site{1, 4}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(p) != 3 || TypeOf(p[1]) != Junction {
		t.Fatalf("path = %v", p)
	}
}

func TestPathAvoidsBlocked(t *testing.T) {
	g := New(2, 2)
	// Block the O site between (0,1) and (0,3): path must detour.
	blocked := func(s Site) bool { return s == Site{0, 2} }
	p, err := g.Path(Site{0, 1}, Site{0, 3}, blocked)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range p {
		if s == (Site{0, 2}) {
			t.Fatal("path used blocked site")
		}
	}
	if len(p) <= 3 {
		t.Fatalf("detour too short: %v", p)
	}
}

func TestPathEndpointJunctionRejected(t *testing.T) {
	g := New(2, 2)
	if _, err := g.Path(Site{0, 0}, Site{0, 1}, nil); err == nil {
		t.Fatal("expected error for junction endpoint")
	}
}

func TestParseSiteRoundTrip(t *testing.T) {
	s := Site{12, 34}
	got, err := ParseSite(s.String())
	if err != nil || got != s {
		t.Fatalf("round trip: %v %v", got, err)
	}
}

// TestRender checks the site-type glyphs of one cell, the layout of the
// paper's Fig 1.
func TestRender(t *testing.T) {
	g := New(1, 1)
	glyph := map[SiteType]byte{Memory: 'M', Operation: 'O', Junction: 'J', None: ' '}
	var lines []string
	for r := 0; r <= g.MaxR(); r++ {
		var row []byte
		for c := 0; c <= g.MaxC(); c++ {
			row = append(row, glyph[TypeOf(Site{r, c})])
		}
		lines = append(lines, string(row))
	}
	if len(lines) != 5 {
		t.Fatalf("render rows = %d", len(lines))
	}
	if lines[0] != "JMOMJ" {
		t.Fatalf("row 0 = %q", lines[0])
	}
	if lines[1] != "M   M" {
		t.Fatalf("row 1 = %q", lines[1])
	}
	if lines[2] != "O   O" {
		t.Fatalf("row 2 = %q", lines[2])
	}
}

func TestDataSiteIsOperation(t *testing.T) {
	for a := 0; a < 3; a++ {
		for b := 0; b < 3; b++ {
			if TypeOf(DataSite(a, b)) != Operation {
				t.Fatalf("DataSite(%d,%d) not an O site", a, b)
			}
			if TypeOf(Site{4 * a, 4 * b}) != Junction {
				t.Fatalf("cell (%d,%d) corner not a junction", a, b)
			}
			for i, want := range []SiteType{Memory, Operation, Memory} {
				if TypeOf(Site{4*a + 1 + i, 4 * b}) != want || TypeOf(Site{4 * a, 4*b + 1 + i}) != want {
					t.Fatalf("cell (%d,%d) arm site %d not %v", a, b, i, want)
				}
			}
		}
	}
}
