// Resource sweep: the co-design use case from the paper's introduction —
// estimate the space-time cost of surface-code operations on a trapped-ion
// processor as a function of code distance, using the literature-derived
// hardware timing model (Table 5). The output shows the ZZ-gate dominance
// of the round time and the quadratic growth of area with distance.
package main

import (
	"fmt"
	"log"

	"tiscc"
)

func main() {
	fmt.Println("logical Idle (dt = d rounds of error correction) vs code distance")
	fmt.Printf("%-4s %-10s %-12s %-12s %-9s %-12s %-12s\n",
		"d", "tile", "time (ms)", "area (mm²)", "zones", "zone-s", "ZZ gates")
	for _, d := range []int{3, 5, 7, 9, 11, 13} {
		layout, err := tiscc.NewLayout(1, 1, d, d, d, tiscc.DefaultParams())
		if err != nil {
			log.Fatal(err)
		}
		tile := tiscc.TileCoord{R: 0, C: 0}
		if _, err := layout.PrepareZ(tile); err != nil {
			log.Fatal(err)
		}
		before := len(layout.Circuit().Events)
		if _, err := layout.Idle(tile); err != nil {
			log.Fatal(err)
		}
		full := layout.Circuit()
		slice := tiscc.Circuit{Events: full.Events[before:]}
		est := tiscc.EstimateCircuit(&slice, tiscc.DefaultParams())
		fmt.Printf("%-4d %dx%-7d %-12.2f %-12.3f %-9d %-12.4f %-12d\n",
			d, tiscc.TileHeight(d), tiscc.TileWidth(d),
			est.Time*1e3, est.AreaM2*1e6, est.Zones, est.ZoneSeconds,
			est.Gates[tiscc.GateZZ])
	}

	fmt.Println()
	fmt.Println("per-gate time budget of one distance-5 round (ZZ dominates, Sec 3.2):")
	layout, err := tiscc.NewLayout(1, 1, 5, 5, 1, tiscc.DefaultParams())
	if err != nil {
		log.Fatal(err)
	}
	tile := tiscc.TileCoord{R: 0, C: 0}
	if _, err := layout.PrepareZ(tile); err != nil {
		log.Fatal(err)
	}
	est := tiscc.EstimateCircuit(layout.Circuit(), tiscc.DefaultParams())
	p := tiscc.DefaultParams()
	for _, g := range []tiscc.Gate{tiscc.GateZZ, tiscc.GateMove, tiscc.GateMeasureZ, tiscc.GatePrepareZ, tiscc.GateYPi4, tiscc.GateZPi2, tiscc.GateZmPi4} {
		n := est.Gates[g]
		fmt.Printf("  %-10s × %-5d = %8.3f ms\n", g, n, float64(n)*float64(p.Duration(g))/1e6)
	}
}
