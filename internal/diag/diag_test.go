package diag

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"tiscc/internal/decoder"
	"tiscc/internal/frame"
	"tiscc/internal/hardware"
	"tiscc/internal/noise"
	"tiscc/internal/pauli"
	"tiscc/internal/verify"
)

// estimate runs a decoded memory-experiment estimation on the Pauli-frame
// engine with the given options filled in around the fixed workload.
func estimate(t *testing.T, d int, m noise.Model, shots, workers int, seed int64, decode bool, obs noise.ShotObserver, prog func(done, errs int, stopped bool)) (noise.Result, *noise.Schedule, *decoder.Detectors) {
	t.Helper()
	mem, err := verify.MemoryExperiment(d, d, pauli.Z)
	if err != nil {
		t.Fatal(err)
	}
	sched := noise.Compile(m, mem.Prog)
	dets, err := decoder.Extract(mem)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := frame.New(mem.Prog, sched)
	if err != nil {
		t.Fatal(err)
	}
	opt := noise.Options{Shots: shots, Seed: seed, Workers: workers,
		Sampler: sim, Observer: obs, Progress: prog}
	if decode {
		g, err := decoder.CompileGraph(dets, sched)
		if err != nil {
			t.Fatal(err)
		}
		opt.Decoder = g
	}
	res, err := noise.EstimateLogicalError(sched, mem.Outcome, mem.Reference, opt)
	if err != nil {
		t.Fatal(err)
	}
	return res, sched, dets
}

// TestDiagDeterminism is the bit-identity guard: attaching the collector (and
// the progress fold) must not change the estimate, across worker counts. The
// error count is additionally pinned as a golden so any future change that
// silently perturbs the sampled records fails loudly.
func TestDiagDeterminism(t *testing.T) {
	const shots, seed = 512, 1
	model := noise.Depolarizing(3e-3)
	base, _, _ := estimate(t, 3, model, shots, 1, seed, true, nil, nil)
	// Golden: d=3 rounds=3 memory, depolarizing p=3e-3, frame engine,
	// union-find decoded, 512 shots, seed 1.
	if base.Errors != 26 {
		t.Fatalf("pinned golden moved: %d errors, want 26 (records perturbed?)", base.Errors)
	}
	for _, workers := range []int{1, 4} {
		mem, err := verify.MemoryExperiment(3, 3, pauli.Z)
		if err != nil {
			t.Fatal(err)
		}
		sched := noise.Compile(model, mem.Prog)
		dets, err := decoder.Extract(mem)
		if err != nil {
			t.Fatal(err)
		}
		coll := NewCollector(sched, dets)
		got, _, _ := estimate(t, 3, model, shots, workers, seed, true, coll, func(int, int, bool) {})
		if got != base {
			t.Fatalf("workers=%d with diag: result %+v != baseline %+v", workers, got, base)
		}
		att := coll.Attribution()
		if att.Shots != shots || int(att.Failures) != base.Errors {
			t.Fatalf("workers=%d: collector saw %d shots / %d failures, estimator %d/%d",
				workers, att.Shots, att.Failures, shots, base.Errors)
		}
	}
}

// TestAttributionSumsToPL checks the attribution invariant the report's
// totals row relies on: per-channel p_L contributions sum to the estimator's
// rate exactly (up to float rounding), and every count is outcome-consistent.
func TestAttributionSumsToPL(t *testing.T) {
	const shots, seed = 2000, 7
	mem, err := verify.MemoryExperiment(3, 3, pauli.Z)
	if err != nil {
		t.Fatal(err)
	}
	sched := noise.Compile(noise.Depolarizing(3e-3), mem.Prog)
	dets, err := decoder.Extract(mem)
	if err != nil {
		t.Fatal(err)
	}
	coll := NewCollector(sched, dets)
	res, _, _ := estimate(t, 3, noise.Depolarizing(3e-3), shots, 4, seed, true, coll, nil)
	att := coll.Attribution()
	if att.PL != res.Rate {
		t.Fatalf("attribution p_L %v != estimator rate %v", att.PL, res.Rate)
	}
	var sum float64
	for _, ch := range att.Channels {
		sum += ch.PLContribution
		if ch.Sites <= 0 {
			t.Fatalf("channel %s/%s has %d sites", ch.Class, ch.Kind, ch.Sites)
		}
		if ch.OddsRatio <= 0 || math.IsInf(ch.OddsRatio, 0) || math.IsNaN(ch.OddsRatio) {
			t.Fatalf("channel %s/%s odds ratio %v not finite-positive", ch.Class, ch.Kind, ch.OddsRatio)
		}
	}
	if math.Abs(sum-att.PL) > 1e-12 {
		t.Fatalf("contributions sum to %v, p_L is %v", sum, att.PL)
	}
	snap := att.Snapshot()
	if err := snap.Check(); err != nil {
		t.Fatal(err)
	}
	if snap.Counter("shots") != shots {
		t.Fatalf("snapshot shots %d, want %d", snap.Counter("shots"), shots)
	}
}

// TestCalibration is the decoder-calibration acceptance gate: on PaperTable5
// memory experiments at d=3 and d=5, every detector's observed fire rate
// must sit within 5σ (binomial) of the DEM-predicted marginal. A violation
// means sampler and detector error model disagree about the noise.
func TestCalibration(t *testing.T) {
	model := noise.PaperTable5(hardware.Default())
	for _, tc := range []struct {
		d, shots int
	}{
		{3, 4000},
		{5, 1500},
	} {
		mem, err := verify.MemoryExperiment(tc.d, tc.d, pauli.Z)
		if err != nil {
			t.Fatal(err)
		}
		sched := noise.Compile(model, mem.Prog)
		dets, err := decoder.Extract(mem)
		if err != nil {
			t.Fatal(err)
		}
		coll := NewCollector(sched, dets)
		// Calibration needs syndromes, not corrections: raw readout keeps
		// d=5 cheap while exercising the same record tables.
		res, _, _ := estimate(t, tc.d, model, tc.shots, 4, 11, false, coll, nil)
		rep, err := coll.DetectorReport()
		if err != nil {
			t.Fatal(err)
		}
		if int(rep.Shots) != tc.shots || len(rep.Detectors) != dets.NumDetectors() {
			t.Fatalf("d=%d: report covers %d shots / %d detectors, want %d / %d",
				tc.d, rep.Shots, len(rep.Detectors), tc.shots, dets.NumDetectors())
		}
		for _, ds := range rep.Detectors {
			if math.Abs(ds.Z) > 5 {
				t.Errorf("d=%d detector %d (%d,%d round %d %s): observed %.5f vs predicted %.5f, z=%.2f",
					tc.d, ds.ID, ds.I, ds.J, ds.Round, ds.Type, ds.Observed, ds.Predicted, ds.Z)
			}
			if ds.FailFired > ds.Fired {
				t.Fatalf("d=%d detector %d: fail_fired %d > fired %d", tc.d, ds.ID, ds.FailFired, ds.Fired)
			}
		}
		if rep.MaxAbsZ > 5 {
			t.Fatalf("d=%d: max |z| = %.2f beyond the 5σ calibration tolerance", tc.d, rep.MaxAbsZ)
		}
		// Failure localization: raw readout at table5 rates fails often
		// enough that samples must exist, in shot order, with defects.
		if res.Errors > 0 && len(rep.Failures) == 0 {
			t.Fatalf("d=%d: %d failures but no localization samples", tc.d, res.Errors)
		}
		for i := 1; i < len(rep.Failures); i++ {
			if rep.Failures[i].Shot <= rep.Failures[i-1].Shot {
				t.Fatalf("d=%d: failure samples out of order: %+v", tc.d, rep.Failures)
			}
		}
	}
}

// TestProgressWriter drives the estimator's Progress hook into the NDJSON
// writer and checks the stream: schema-tagged lines, monotone done counts,
// batch boundaries at the estimator's batch size, and a final done event
// matching the result.
func TestProgressWriter(t *testing.T) {
	var buf bytes.Buffer
	const shots = 600
	pw := NewProgressWriter(&buf, "test-point", shots)
	res, _, _ := estimate(t, 3, noise.Depolarizing(3e-3), shots, 4, 3, true, nil, pw.Batch)
	pw.Done(res)
	if err := pw.Err(); err != nil {
		t.Fatal(err)
	}
	if res.Shots != shots || res.EarlyStopBatch != 0 {
		t.Fatalf("progress fold changed the run: %+v", res)
	}
	var events []ProgressEvent
	dec := json.NewDecoder(&buf)
	for dec.More() {
		var ev ProgressEvent
		if err := dec.Decode(&ev); err != nil {
			t.Fatal(err)
		}
		if ev.Schema != ProgressSchema {
			t.Fatalf("event schema %q", ev.Schema)
		}
		if ev.Label != "test-point" {
			t.Fatalf("event label %q", ev.Label)
		}
		events = append(events, ev)
	}
	// 600 shots at the default batch of 256 → start, batches at 256 and
	// 512, done at 600.
	if len(events) != 4 {
		t.Fatalf("got %d events, want 4: %+v", len(events), events)
	}
	if events[0].Event != "start" || events[0].Total != shots {
		t.Fatalf("start event %+v", events[0])
	}
	if events[1].Done != 256 || events[2].Done != 512 {
		t.Fatalf("batch boundaries %d, %d, want 256, 512", events[1].Done, events[2].Done)
	}
	last := events[len(events)-1]
	if last.Event != "done" || last.Done != shots || last.Errors != res.Errors ||
		last.PL != res.Rate || last.EarlyStopped {
		t.Fatalf("done event %+v vs result %+v", last, res)
	}
	for i := 1; i < len(events); i++ {
		if events[i].Done < events[i-1].Done {
			t.Fatalf("done not monotone: %+v", events)
		}
		if events[i].Errors > events[i].Done {
			t.Fatalf("errors exceed done: %+v", events[i])
		}
	}
}
