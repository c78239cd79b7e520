// Package resource implements the TISCC hardware resource estimator
// (Sec 3.4): given a time-resolved circuit, it reports execution time, grid
// area, space-time volume, trapping-zone counts, trapping zone-seconds and
// active trapping zone-seconds.
package resource

import (
	"fmt"
	"strings"

	"tiscc/internal/circuit"
	"tiscc/internal/hardware"
)

// Estimate is the resource report for one compiled operation.
type Estimate struct {
	// Time is the circuit makespan in seconds.
	Time float64
	// AreaM2 is the bounding-box area of the used grid region in m²
	// (junction pitch = 4 zone widths).
	AreaM2 float64
	// Volume is the space-time volume Time × AreaM2 (s·m²).
	Volume float64
	// Zones is the number of distinct trapping zones addressed.
	Zones int
	// ZoneSeconds is Zones × Time.
	ZoneSeconds float64
	// ActiveZoneSeconds sums gate duration × zones involved over all
	// events: the time trapping zones spend actively operated.
	ActiveZoneSeconds float64
	// Gates tallies events per native gate.
	Gates map[circuit.Gate]int
	// Events is the total event count.
	Events int
}

// FromCircuit computes the estimate for a compiled circuit under the given
// hardware parameters.
func FromCircuit(c *circuit.Circuit, p hardware.Params) Estimate {
	sites := c.Sites()
	est := Estimate{
		Time:   float64(c.Duration()) / 1e9,
		Zones:  len(sites),
		Gates:  c.GateCounts(),
		Events: len(c.Events),
	}
	if len(sites) > 0 {
		minR, maxR := sites[0].R, sites[0].R
		minC, maxC := sites[0].C, sites[0].C
		for _, s := range sites {
			if s.R < minR {
				minR = s.R
			}
			if s.R > maxR {
				maxR = s.R
			}
			if s.C < minC {
				minC = s.C
			}
			if s.C > maxC {
				maxC = s.C
			}
		}
		// Each fine-grid step spans one trapping-zone width.
		h := float64(maxR-minR+1) * p.ZoneWidthM
		w := float64(maxC-minC+1) * p.ZoneWidthM
		est.AreaM2 = h * w
	}
	est.Volume = est.Time * est.AreaM2
	est.ZoneSeconds = float64(est.Zones) * est.Time
	est.ActiveZoneSeconds = float64(c.ActiveSiteTime()) / 1e9
	return est
}

// String renders the estimate as the paper-style resource row.
func (e Estimate) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "time=%.6gs area=%.6gm² volume=%.6gs·m² zones=%d zone-s=%.6g active-zone-s=%.6g events=%d",
		e.Time, e.AreaM2, e.Volume, e.Zones, e.ZoneSeconds, e.ActiveZoneSeconds, e.Events)
	return sb.String()
}
