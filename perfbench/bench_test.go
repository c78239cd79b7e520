package main

import (
	"bytes"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"

	"tiscc/internal/serve"
)

func TestPercentileRefusesThinTail(t *testing.T) {
	samples := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending, so sorting matters
		}
		return xs
	}
	if _, err := percentile(samples(999), 99); err == nil {
		t.Fatal("p99 of 999 samples (9 beyond it) was not refused")
	}
	v, err := percentile(samples(1000), 99)
	if err != nil {
		t.Fatalf("p99 of 1000 samples: %v", err)
	}
	if v != 990 {
		t.Fatalf("p99 of 1..1000 = %v, want 990", v)
	}
	if _, err := percentile(samples(19), 50); err == nil {
		t.Fatal("p50 of 19 samples (9 beyond it) was not refused")
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Fatalf("median of 3,1,2 = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Fatalf("median of 4,1,3,2 = %v", got)
	}
}

func TestTamperedPinnedCountFails(t *testing.T) {
	const name = "memory-d9-dense"
	want := pinnedValues[name]
	if err := checkPinned(pinnedValues, name, pinnedSeed, want.errors, want.syndromeWeight); err != nil {
		t.Fatalf("pinned outputs rejected: %v", err)
	}
	tampered := map[string]pinned{}
	for k, v := range pinnedValues {
		tampered[k] = v
	}
	tampered[name] = pinned{errors: want.errors + 1, syndromeWeight: want.syndromeWeight}
	if err := checkPinned(tampered, name, pinnedSeed, want.errors, want.syndromeWeight); err == nil {
		t.Fatal("tampered pinned error count passed the check")
	}
	tampered[name] = pinned{errors: want.errors, syndromeWeight: want.syndromeWeight - 1}
	if err := checkPinned(tampered, name, pinnedSeed, want.errors, want.syndromeWeight); err == nil {
		t.Fatal("tampered pinned syndrome weight passed the check")
	}
	if err := checkPinned(tampered, name, pinnedSeed+1, 0, 0); err != nil {
		t.Fatalf("an unpinned seed was checked: %v", err)
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json, which the benchmark's
// runner reads, in step with the metrics and workloads this program
// reports.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for n := range workloads {
		want = append(want, n)
	}
	sort.Strings(names)
	sort.Strings(want)
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Errorf("BENCHMARK.json workloads %v, program %v", names, want)
	}
	compare := func(kind string, got []struct{ Name, Unit, Better string }, defs []metricDef) {
		if len(got) != len(defs) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, program %d", kind, len(got), len(defs))
			return
		}
		for i, d := range defs {
			if g := got[i]; g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, program %+v", kind, i, g, d)
			}
		}
	}
	compare("end_to_end", spec.EndToEnd, endToEnd)
	compare("per_layer", spec.PerLayer, perLayer)
}

// smokeWorkloads are the four workloads shrunk to distance 3 and a few
// shots: the same code paths in a few seconds.
var smokeWorkloads = map[string]workload{
	"memory-dense":   estimateWorkload{spec: memorySpec(3, dep, 1e-3), shots: 128, setups: 1},
	"memory-raw":     estimateWorkload{spec: spec{d: 3, rounds: 3, model: dep, p: 1e-3}, shots: 128, setups: 1},
	"surgery-sparse": estimateWorkload{spec: surgerySpec(3, dep, 5e-5), shots: 128, setups: 1},
	"serve-mixed": serveWorkload{
		clients: [][]spec{{memorySpec(3, dep, 1e-3), memorySpec(3, serve.ModelTable5, 0)}, {surgerySpec(3, dep, 1e-3)}},
		shots:   16, setups: 2, missEvery: 3, warmRounds: 2, directRep: 2,
	},
}

func TestSmokeWorkloads(t *testing.T) {
	for name, w := range smokeWorkloads {
		t.Run(name, func(t *testing.T) {
			for _, traced := range []bool{false, true} {
				var r *runResult
				var err error
				if traced {
					r, err = w.trace(name, 7, 0, newTracer())
				} else {
					r, err = w.run(name, 7, 0)
				}
				if err != nil {
					t.Fatalf("traced=%v: %v", traced, err)
				}
				var out bytes.Buffer
				s, err := report(&out, r, traced)
				if err != nil {
					t.Fatalf("traced=%v: %v", traced, err)
				}
				if !s.Correct || s.Attempted == 0 {
					t.Fatalf("traced=%v: %d of %d checks failed:\n%s", traced, s.Failed, s.Attempted, out.String())
				}
				for _, d := range endToEnd {
					if v := s.Metrics[d.name].Value; !traced && !(v > 0) {
						t.Errorf("%s = %v, want > 0", d.name, v)
					}
				}
			}
		})
	}
}

func TestSmokeDesignPredictions(t *testing.T) {
	raw, err := smokeWorkloads["memory-raw"].trace("memory-raw", 7, 0, newTracer())
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range []string{"decoder.dem_compile_s", "decoder.decode_us_per_shot", "decoder.syndrome_us_per_shot"} {
		if v := raw.layers[l]; v != 0 {
			t.Errorf("raw readout spends %v in %s", v, l)
		}
	}
	sparse, err := smokeWorkloads["surgery-sparse"].trace("surgery-sparse", 7, 0, newTracer())
	if err != nil {
		t.Fatal(err)
	}
	if v := sparse.layers["decoder.empty_syndrome_frac"]; v < 0.5 {
		t.Errorf("surgery at p=5e-5: empty syndrome fraction %v, want above 0.5", v)
	}
}

func TestCLI(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"--workload", "nonesuch"}, &stdout, &stderr); code != 2 {
		t.Fatalf("unknown workload: exit %d, want 2", code)
	}
	if code := run([]string{"--workload", "serve-mixed", "--trace", "2"}, &stdout, &stderr); code != 2 {
		t.Fatalf("--trace 2: exit %d, want 2", code)
	}
	if testing.Short() {
		t.Skip("full-size run")
	}
	stdout.Reset()
	args := []string{"--workload", "memory-d13-raw", "--seed", "3", "--seconds", "0", "--out", t.TempDir()}
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d\n%s%s", code, stdout.String(), stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var s summary
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &s); err != nil {
		t.Fatalf("last line: %v", err)
	}
	if !s.Correct || s.Failed != 0 || len(s.Metrics) != len(endToEnd) {
		t.Fatalf("summary %+v", s)
	}
}
