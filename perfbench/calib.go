package main

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"
)

// Host normalization. The benchmark host is shared, and how fast it runs
// this pipeline drifts by tens of percent within seconds and by up to half
// over minutes, as neighbours load its cores and memory system. A fixed
// calibration kernel, timed next to every timed interval, tracks most of
// that drift: after each estimate request and each serve loop segment on
// two goroutines, around each set-up (the median of three before and three
// after, as a set-up is long enough to move between cores), and after each
// serve start-up and miss on one goroutine. Each end-to-end time is
// reported as it would read on a reference host, on which the kernel takes
// calibRef:
//
//	normalized = wall × calibRef / calibration wall
//
// The kernel uses no repository code, so a change to the pipeline moves
// the timed intervals and never their calibration. Raw wall times are
// printed beside the normalized ones.

// calibRef is the calibration wall time of the reference host.
const calibRef = 20 * time.Millisecond

// calibTable is the per-goroutine working set of the kernel, in 64-bit
// words (4 MiB: past the private caches, like the pipeline's frame planes,
// record tables and decoder scratch at these distances).
const calibTable = 1 << 19

// calibSteps is the kernel's length per goroutine.
const calibSteps = 1 << 21

// calibrator runs the kernel on one goroutine per table. Its tables are
// mapped outside the Go heap, so that they neither count as live heap nor
// move the collector's pacing, and filled once at creation, so that
// calibrating neither allocates nor faults in fresh pages. They stay
// resident until release; programRSSMB leaves them out. A calibrator is not
// safe for concurrent use.
type calibrator struct {
	mapped [][]byte
	tables [][]uint64
}

// calibResident is the size in bytes of the calibration tables mapped now.
var calibResident atomic.Int64

func newCalibrator(threads int) (*calibrator, error) {
	c := &calibrator{}
	for range threads {
		b, err := syscall.Mmap(-1, 0, calibTable*8, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
		if err != nil {
			c.release()
			return nil, fmt.Errorf("calibration table: %w", err)
		}
		table := unsafe.Slice((*uint64)(unsafe.Pointer(&b[0])), calibTable)
		for i := range table {
			table[i] = uint64(i)
		}
		c.mapped = append(c.mapped, b)
		c.tables = append(c.tables, table)
		calibResident.Add(int64(len(b)))
	}
	return c, nil
}

// release unmaps the tables.
func (c *calibrator) release() {
	for _, b := range c.mapped {
		if syscall.Munmap(b) == nil {
			calibResident.Add(-int64(len(b)))
		}
	}
	c.mapped, c.tables = nil, nil
}

// programRSSMB is the process's peak resident set size in MiB less the
// calibration tables mapped now: they are resident from their creation
// on, so the rest is the pipeline's own peak plus the Go runtime's.
func programRSSMB() float64 {
	return peakRSSMB() - float64(calibResident.Load())/(1<<20)
}

var calibSink atomic.Uint64

// time times the kernel — SplitMix64 hashing with scattered
// read-modify-writes into a private table — on every table at once. With
// gc set it first collects the heap, so that no collection the last timed
// interval left running takes CPU from the kernel, and the next interval
// starts from the same state whatever garbage the last one left; a serve
// client calibrates without collecting, since a collection would stop the
// other client too.
func (c *calibrator) time(gc bool) time.Duration {
	if gc {
		runtime.GC()
	}
	var wg sync.WaitGroup
	t0 := time.Now()
	for g, table := range c.tables {
		wg.Add(1)
		go func() {
			defer wg.Done()
			x := uint64(g + 1)
			for i := 0; i < calibSteps; i++ {
				x += 0x9E3779B97F4A7C15
				z := x
				z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
				z = (z ^ (z >> 27)) * 0x94D049BB133111EB
				z ^= z >> 31
				table[z%calibTable] ^= z + table[(z>>32)%calibTable]
			}
			calibSink.Add(table[x%calibTable])
		}()
	}
	wg.Wait()
	return time.Since(t0)
}

// median3 is the median of three timings: the host's speed around a
// set-up, which is long enough to move between cores.
func (c *calibrator) median3() time.Duration {
	a, b, d := c.time(true), c.time(true), c.time(true)
	return max(min(a, b), min(max(a, b), d))
}

// timed is one wall-clock interval with the calibration paired with it.
type timed struct {
	wall, calib time.Duration
}

// normalized is the interval in seconds on the reference host.
func (t timed) normalized() float64 {
	return t.wall.Seconds() * float64(calibRef) / float64(t.calib)
}

// normalizedAll, walls and calibs list the seconds of every interval.
func normalizedAll(ts []timed) []float64 {
	out := make([]float64, len(ts))
	for i, t := range ts {
		out[i] = t.normalized()
	}
	return out
}

func walls(ts []timed) []float64 {
	out := make([]float64, len(ts))
	for i, t := range ts {
		out[i] = t.wall.Seconds()
	}
	return out
}

func calibs(ts []timed) []float64 {
	out := make([]float64, len(ts))
	for i, t := range ts {
		out[i] = t.calib.Seconds()
	}
	return out
}
