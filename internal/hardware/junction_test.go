package hardware

import (
	"encoding/binary"
	"math/rand"
	"testing"

	"tiscc/internal/grid"
)

// reserveFixpoint is the original junction reservation and the oracle of
// reserveJunction: it rescans every window reserved at the junction,
// restarting after each conflict, until [start, start+d) overlaps none,
// then appends the window.
func reserveFixpoint(wins *[]window, t, d int64) int64 {
	start := t
	for {
		conflict := false
		for _, w := range *wins {
			if start < w.end && w.start < start+d {
				conflict = true
				if w.end > start {
					start = w.end
				}
			}
		}
		if !conflict {
			break
		}
	}
	*wins = append(*wins, window{start, start + d})
	return start
}

// checkReserveJunction replays requests of 4 bytes each — a junction, a
// 10-bit request time and a 6-bit duration, durations of 0 included —
// through reserveJunction and the fixpoint oracle, and fails unless every
// request gets the same start from both.
func checkReserveJunction(t *testing.T, data []byte) {
	g := grid.New(2, 2)
	b := NewBuilder(g, Default())
	var junctions []grid.Site
	for r := range g.MaxR() + 1 {
		for c := range g.MaxC() + 1 {
			if s := (grid.Site{R: r, C: c}); g.Valid(s) && grid.TypeOf(s) == grid.Junction {
				junctions = append(junctions, s)
			}
		}
	}
	oracle := make(map[grid.Site]*[]window)
	for n := 0; len(data) >= 4; n++ {
		j := junctions[int(data[0])%len(junctions)]
		at := int64(binary.LittleEndian.Uint16(data[1:]) % 1024)
		d := int64(data[3] % 64)
		data = data[4:]
		if oracle[j] == nil {
			oracle[j] = new([]window)
		}
		want := reserveFixpoint(oracle[j], at, d)
		if got := b.reserveJunction(j, at, d); got != want {
			t.Fatalf("request %d: junction %v at %d for %d: start %d, fixpoint scan %d", n, j, at, d, got, want)
		}
	}
}

// TestReserveJunctionMatchesFixpoint checks the sorted gap walk against the
// fixpoint scan on random request streams dense enough that most requests
// conflict.
func TestReserveJunctionMatchesFixpoint(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for range 200 {
		data := make([]byte, 4*(1+r.Intn(200)))
		r.Read(data)
		checkReserveJunction(t, data)
	}
}

// FuzzReserveJunction is checkReserveJunction on arbitrary request streams.
func FuzzReserveJunction(f *testing.F) {
	f.Add([]byte{0, 10, 0, 20, 0, 5, 0, 20, 0, 0, 0, 0, 0, 40, 0, 0, 0, 12, 0, 7})
	f.Add([]byte{1, 0, 0, 63, 2, 0, 0, 63, 1, 30, 0, 63, 1, 1, 0, 1, 1, 62, 0, 0})
	f.Fuzz(checkReserveJunction)
}
