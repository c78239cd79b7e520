// Command orqcs runs the quasi-Clifford verification simulator on a TISCC
// circuit file, mirroring how the Oak Ridge Quasi-Clifford Simulator
// consumes TISCC output in the paper (Sec 4): it parses the native-gate
// instruction stream, interprets it as unitaries on a stabilizer state
// while tracking ion movement, and reports measurement records and
// requested Pauli-string expectation values.
//
// Usage:
//
//	orqcs -circuit file.tiscc [-seed 1] [-shots 1] [-workers 0] [-expect "Z@0.2,X@4.6"] [-noise p | -fuse]
//	orqcs -memory d[:rounds] [-noise p] [-decode] [-shots N] [-dem file.dem]
//	orqcs -surgery d[:rounds] [-noise p] [-decode] [-shots N] [-dem file.dem]
//
// The circuit is compiled once into a lowered program; multi-shot estimates
// then run on a deterministic parallel worker pool (results depend only on
// the seed, never on the worker count). With -noise p, shots run under a
// uniform circuit-level depolarizing model at physical error rate p, with
// faults injected per instruction from a compiled fault schedule. -fuse
// applies the single-qubit rotation fusion peephole before simulating; it
// is noiseless-only, because fusion drops instructions and the schedule
// charges gate faults per instruction, so a fused noisy run would estimate
// a different circuit.
// -shots above 1 with -circuit needs -expect: a circuit file runs one shot
// and prints its records unless there are expectation values to estimate.
// -expect estimates sample on the batch Pauli-frame engine for Clifford
// circuits (bit-identical records, O(faults) per shot) and on the
// inverse tableau, whose weighted quasi-probability branches handle T
// gates, otherwise. Logical error rates (-memory, -surgery) always sample
// fault firings on the frame engine and read them through a fault-effect
// table, raw or decoded.
//
// -memory runs a compiled distance-d logical memory experiment instead of a
// circuit file: with -noise p it estimates the logical error rate, with
// -decode each shot's syndrome history is union-find decoded first, and
// -dem writes the experiment's Stim-compatible detector error model so
// external decoders (PyMatching et al.) can consume it. rounds defaults to
// d, and 0 also means d.
//
// -surgery runs a distance-d two-patch ZZ-merge/split cycle instead: the
// estimated quantity is the joint-parity error (final Z̄Z̄ readout against
// the merge outcome), with detectors stitched across the merge and split
// boundaries; rounds counts the merged-phase rounds (default d).
//
// Both experiments are an experiment.Spec compiled and run by the shared
// experiment pipeline, the same path as tiscc-bench -noise, tiscc-serve and
// the tiscc facade.
//
// -metrics (with -memory/-surgery) writes the run's structured manifest:
// provenance, stage spans and the estimation point's program, noise, sampler
// and decoder metric snapshots; -prom writes the same metrics in Prometheus
// text exposition format. -diag prints per-channel error-budget attribution,
// -dem-calib the per-detector observed-vs-DEM-predicted calibration
// residuals, and -progress streams NDJSON batch progress events. All
// observability paths read the faults each sampled batch fired and touch no
// RNG, so the estimate is bit-identical with and without them.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"

	"tiscc/internal/circuit"
	"tiscc/internal/decoder"
	"tiscc/internal/diag"
	"tiscc/internal/experiment"
	"tiscc/internal/grid"
	"tiscc/internal/noise"
	"tiscc/internal/orqcs"
	"tiscc/internal/pauli"
	"tiscc/internal/telemetry"
)

func main() {
	var (
		file    = flag.String("circuit", "", "circuit file (TISCC textual form)")
		seed    = flag.Int64("seed", 1, "simulation seed")
		shots   = flag.Int("shots", 1, "Monte-Carlo shots (for non-Clifford circuits)")
		workers = flag.Int("workers", 0, "parallel shot workers (0 = GOMAXPROCS)")
		expect  = flag.String("expect", "", "comma-separated Pauli ops, e.g. Z@0.2,X@4.6")
		quiet   = flag.Bool("quiet", false, "suppress the record table")
		noiseP  = flag.Float64("noise", 0, "uniform depolarizing physical error rate (0 = noiseless)")
		fuse    = flag.Bool("fuse", false, "with a noiseless -circuit run: fuse adjacent single-qubit Clifford rotations before simulating")
		memory  = flag.String("memory", "", "run a memory experiment instead of a circuit file: d or d:rounds")
		surgery = flag.String("surgery", "", "run a two-patch ZZ-merge/split cycle instead of a circuit file: d or d:rounds")
		decode  = flag.Bool("decode", false, "with -memory/-surgery -noise: union-find-decode each shot's syndrome history")
		demFile = flag.String("dem", "", "with -memory/-surgery: write the Stim-compatible detector error model to this file")
		metOut  = flag.String("metrics", "", "with -memory/-surgery: write the structured run manifest (provenance, spans, pipeline metrics) to this JSON file")
		promOut = flag.String("prom", "", "with -memory/-surgery: write the run metrics in Prometheus text exposition format to this file")
		diagOut = flag.Bool("diag", false, "with a noisy -memory/-surgery run: print the per-channel error-budget attribution table (and record it in the manifest)")
		calOut  = flag.Bool("dem-calib", false, "with a decoded noisy -memory/-surgery run: print per-detector observed vs DEM-predicted fire rates with calibration residuals")
	)
	var progress diag.ProgressFlag
	flag.Var(&progress, "progress", "with a noisy -memory/-surgery run: stream NDJSON batch progress events (bare -progress → stderr, -progress=FILE → file)")
	flag.Parse()
	if *memory != "" && *surgery != "" {
		usageErr("-memory and -surgery are mutually exclusive")
	}
	exp := *memory != "" || *surgery != ""
	if *metOut != "" && !exp {
		usageErr("-metrics requires -memory or -surgery")
	}
	if *promOut != "" && !exp {
		usageErr("-prom requires -memory or -surgery")
	}
	if *fuse && exp {
		usageErr("-fuse applies to -circuit only")
	}
	if !exp && *shots > 1 && *expect == "" {
		usageErr("-shots with -circuit requires -expect: a multi-shot circuit run only estimates expectation values")
	}
	if *fuse && *noiseP != 0 {
		usageErr("-fuse cannot be combined with -noise: fusion drops instructions, and faults are charged per instruction")
	}
	if *diagOut && (!exp || *noiseP == 0) {
		usageErr("-diag requires -memory or -surgery with -noise")
	}
	if *calOut && (!exp || *noiseP == 0 || !*decode) {
		usageErr("-dem-calib requires a decoded noisy experiment (-memory or -surgery with -noise and -decode)")
	}
	if progress.Dest != "" && (!exp || *noiseP == 0) {
		usageErr("-progress requires -memory or -surgery with -noise")
	}
	// Validate every numeric flag up front: invalid inputs must exit with a
	// usage error, never reach an internal panic ("grid: size must be
	// positive" and friends are for programming errors, not typos).
	if err := validateProb("-noise", *noiseP); err != nil {
		usageErr(err.Error())
	}
	if err := validateShots(*shots); err != nil {
		usageErr(err.Error())
	}
	if *workers < 0 {
		usageErr(fmt.Sprintf("-workers must be ≥ 0 (0 = GOMAXPROCS), got %d", *workers))
	}
	if exp {
		workload, spec := experiment.Memory, *memory
		if *surgery != "" {
			workload, spec = experiment.Surgery, *surgery
		}
		runExperiment(workload, spec, *noiseP, *decode, *demFile, *metOut, *promOut, progress, experiment.RunOptions{
			Shots: *shots, Seed: *seed, Workers: *workers, Diag: *diagOut, DemCalib: *calOut,
		})
		return
	}
	if *file == "" {
		usageErr("-circuit, -memory or -surgery is required")
	}
	text, err := os.ReadFile(*file)
	if err != nil {
		fatal(err)
	}
	circ, err := circuit.Parse(string(text))
	if err != nil {
		fatal(err)
	}
	op, err := parseExpect(*expect)
	if err != nil {
		fatal(err)
	}

	prog, err := orqcs.Compile(circ)
	if err != nil {
		fatal(err)
	}
	if *fuse {
		before := prog.NumInstrs()
		prog = prog.FuseRotations()
		fmt.Fprintf(os.Stderr, "orqcs: rotation fusion %d → %d instructions\n", before, prog.NumInstrs())
	}
	var sched *noise.Schedule
	if *noiseP != 0 {
		m, _ := experiment.Model(experiment.ModelDepolarizing, *noiseP) // -noise is validated above
		sched = noise.Compile(m, prog)
	}

	if *shots > 1 && len(op) > 0 {
		mean, stderr, err := experiment.EstimateOp(prog, sched, op, *shots, *seed, *workers)
		if err != nil {
			fatal(err)
		}
		label := ""
		if sched != nil {
			label = fmt.Sprintf(", depolarizing p=%g over %d fault sites", *noiseP, sched.NumFaultSites())
		}
		fmt.Printf("expectation %s = %.6f ± %.6f (%d shots, %d T gates%s)\n",
			*expect, mean, stderr, *shots, prog.NumTGates(), label)
		return
	}

	eng := orqcs.NewFromProgram(prog)
	if sched != nil {
		sched.RunShot(eng, *seed)
	} else {
		eng.RunShot(*seed)
	}
	if !*quiet {
		var ids []int32
		for id := range eng.Records() {
			if id >= 0 {
				ids = append(ids, id)
			}
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		for _, id := range ids {
			v := 0
			if eng.Records()[id] {
				v = 1
			}
			fmt.Printf("m%d = %d\n", id, v)
		}
	}
	if len(op) > 0 {
		v, err := eng.Expectation(op)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("expectation %s = %+g\n", *expect, v)
	}
}

// parseDSpec parses and validates a d or d:rounds experiment spec (rounds
// defaults to d): the distance must be a code distance the compiler accepts
// (≥ 2) and the round count non-negative, so bad specs exit with a usage
// error instead of a grid-construction panic deep in the compiler.
func parseDSpec(flagName, spec string) (d, rounds int, err error) {
	parts := strings.SplitN(spec, ":", 2)
	d, err = strconv.Atoi(strings.TrimSpace(parts[0]))
	if err != nil {
		return 0, 0, fmt.Errorf("bad -%s %q: %w", flagName, spec, err)
	}
	rounds = d
	if len(parts) == 2 {
		if rounds, err = strconv.Atoi(strings.TrimSpace(parts[1])); err != nil {
			return 0, 0, fmt.Errorf("bad -%s %q: %w", flagName, spec, err)
		}
	}
	if d < 2 {
		return 0, 0, fmt.Errorf("bad -%s %q: distance must be ≥ 2, got %d", flagName, spec, d)
	}
	if rounds < 0 {
		return 0, 0, fmt.Errorf("bad -%s %q: rounds must be ≥ 0, got %d", flagName, spec, rounds)
	}
	return d, rounds, nil
}

// validateProb checks a probability flag lies in [0, 1].
func validateProb(name string, p float64) error {
	if math.IsNaN(p) || p < 0 || p > 1 {
		return fmt.Errorf("%s must be a probability in [0, 1], got %v", name, p)
	}
	return nil
}

// validateShots checks the Monte-Carlo shot count is positive.
func validateShots(shots int) error {
	if shots < 1 {
		return fmt.Errorf("-shots must be ≥ 1, got %d", shots)
	}
	return nil
}

// usageErr prints a usage error and exits with the conventional status 2.
func usageErr(msg string) {
	fmt.Fprintln(os.Stderr, "orqcs:", msg)
	os.Exit(2)
}

// runExperiment is -memory and -surgery: compile the experiment spec, write
// the detector error model if requested, then estimate the (optionally
// union-find-decoded) logical error rate under depolarizing noise through
// the shared point runner, and write the run manifest (metricsFile),
// Prometheus exposition (promFile), diagnostics reports and progress stream
// the options request.
func runExperiment(workload, dspec string, noiseP float64, decode bool, demFile, metricsFile, promFile string, progress diag.ProgressFlag, ro experiment.RunOptions) {
	d, rounds, err := parseDSpec(workload, dspec)
	if err != nil {
		usageErr(err.Error())
	}
	m, _ := experiment.Model(experiment.ModelDepolarizing, noiseP) // -noise is validated by main
	sp := telemetry.NewSpans()
	circ, err := experiment.Build(experiment.Spec{Workload: workload, Distance: d, Rounds: rounds}, decode || demFile != "", sp)
	if err != nil {
		fatal(err)
	}
	c, err := circ.Compile(m, decode && noiseP != 0, sp)
	if err != nil {
		fatal(err)
	}
	rawLabel, roundsName := "raw readout", "rounds"
	if workload == experiment.Surgery {
		rawLabel, roundsName = "raw joint-parity readout", "merged-rounds"
	}
	fmt.Printf("%s experiment d=%d %s=%d: %d qubits, %d instructions\n",
		workload, d, roundsName, c.Spec.NumRounds(), c.Prog.NumQubits(), c.Prog.NumInstrs())
	if demFile != "" {
		if noiseP == 0 {
			fmt.Fprintln(os.Stderr, "orqcs: -dem with -noise 0 writes a detector error model with no error mechanisms")
		}
		f, err := os.Create(demFile)
		if err != nil {
			fatal(err)
		}
		// A decoded run has compiled the graph the DEM is written from; a
		// raw run compiles one for the DEM only and stays raw.
		g := c.Graph
		if g == nil {
			g, err = decoder.CompileGraph(c.Detectors, c.Sched)
		}
		if err == nil {
			err = g.WriteDEM(f, c.Sched)
		}
		if err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote detector error model (%d detectors, %d fault sites) to %s\n",
			c.Detectors.NumDetectors(), c.Sched.NumFaultSites(), demFile)
	}
	writeManifest := func(pt telemetry.Point) {
		if metricsFile == "" && promFile == "" {
			return
		}
		man := telemetry.NewManifest("orqcs")
		man.Config = map[string]any{
			"noise": noiseP, "shots": ro.Shots, "seed": ro.Seed,
			"workers": ro.Workers, "decode": decode,
		}
		man.AddPoint(pt)
		man.Finish(sp)
		if err := man.WriteOutputs(metricsFile, promFile, os.Stdout); err != nil {
			fatal(err)
		}
	}
	if noiseP == 0 {
		if decode || ro.Shots > 1 {
			fmt.Fprintln(os.Stderr, "orqcs: -noise 0: nothing to estimate (-decode/-shots ignored)")
		}
		// The manifest still records the compile-time pipeline state.
		writeManifest(telemetry.Point{
			Labels: c.Labels(),
			Metrics: map[string]*telemetry.Snapshot{
				"program": c.Prog.Metrics(),
				"noise":   c.Sched.Metrics(),
			},
		})
		return
	}
	progW, closeProg, err := progress.Open()
	if err != nil {
		fatal(err)
	}
	defer closeProg()
	ro.Progress, ro.Spans = progW, sp
	ro.Label = fmt.Sprintf("%s p=%g", workload, noiseP)
	pt, err := c.Run(ro)
	if err != nil {
		fatal(err)
	}
	label := rawLabel
	if decode {
		label = "union-find decoded"
	}
	fmt.Printf("depolarizing p=%g (%s): %v\n", noiseP, label, pt.Result)
	fmt.Print(pt.Tables)
	writeManifest(pt.Telemetry)
}

func parseExpect(s string) (orqcs.SitePauli, error) {
	op := orqcs.SitePauli{}
	if s == "" {
		return op, nil
	}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if len(part) < 3 || part[1] != '@' {
			return nil, fmt.Errorf("orqcs: bad operator %q (want P@r.c)", part)
		}
		var k pauli.Kind
		switch part[0] {
		case 'X':
			k = pauli.X
		case 'Y':
			k = pauli.Y
		case 'Z':
			k = pauli.Z
		default:
			return nil, fmt.Errorf("orqcs: bad Pauli %q", part[:1])
		}
		site, err := grid.ParseSite(part[2:])
		if err != nil {
			return nil, err
		}
		op[site] = k
	}
	return op, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "orqcs:", err)
	os.Exit(1)
}
