// Command tiscc-bench regenerates the tables and figures of the TISCC
// paper from this implementation: the instruction-set tables (1, 2, 3),
// the native gate-set table (5), the patch/arrangement/pattern figures
// (1, 2, 3, 4, 6), per-instruction hardware resource estimates across code
// distances (the paper's resource-estimator output, Sec 3.4), and the
// verification matrix of Sec 4.
//
// Usage:
//
//	tiscc-bench -all
//	tiscc-bench -table 1 | -table 2 | -table 3 | -table 5
//	tiscc-bench -figure 1 | 2 | 3 | 4 | 6
//	tiscc-bench -resources [-dlist 3,5,7,9,11,13]
//	tiscc-bench -verify
//	tiscc-bench -noise [-dlist 3,5] [-plist 1e-4,...] [-rounds 0] [-shots N] [-model depolarizing|table5] [-seed 1] [-workers 0]
//	tiscc-bench -noise -decode ...  (adds union-find syndrome decoding: p-vs-p_L threshold sweeps)
//	tiscc-bench -noise -surgery ... (sweeps two-patch ZZ-merge/split cycles instead of idle memory)
//	tiscc-bench -noise ... [-json] [-metrics run.json] [-prom run.prom]
//	tiscc-bench -noise ... [-diag] [-dem-calib] [-progress[=events.ndjson]]
//	tiscc-bench ... [-cpuprofile cpu.pprof] [-memprofile mem.pprof] [-trace trace.out]
//
// Noise sweeps compile every (d, p) point through internal/experiment — the
// same spec → compiled experiment → estimate path as the tiscc facade,
// tiscc-serve and orqcs -memory/-surgery — and sample on the Pauli-frame
// engine. -rounds 0 (the default) runs d rounds; for -surgery it counts the
// merged-phase rounds.
//
// Noise sweeps carry full observability: -metrics writes a structured run
// manifest (provenance, config, stage spans, per-point results with merged
// pipeline metrics), -json emits the same manifest to stdout instead of the
// human-readable table, and -prom writes the aggregated counters in the
// Prometheus text exposition format. -diag adds per-channel error-budget
// attribution (which noise channels drive logical failure), -dem-calib the
// per-detector observed-vs-predicted calibration residuals, and -progress a
// streaming NDJSON feed of batch-level estimator progress. All diagnostics
// read the faults each sampled batch fired and never touch the samplers'
// RNG, so records stay bit-identical with or without them. The pprof flags profile
// any workload.
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
	"strconv"
	"strings"

	"tiscc/internal/circuit"
	"tiscc/internal/core"
	"tiscc/internal/diag"
	"tiscc/internal/experiment"
	"tiscc/internal/hardware"
	"tiscc/internal/instr"
	"tiscc/internal/pauli"
	"tiscc/internal/resource"
	"tiscc/internal/telemetry"
	"tiscc/internal/verify"
)

func main() {
	var (
		all     = flag.Bool("all", false, "regenerate everything")
		table   = flag.Int("table", 0, "print one paper table (1, 2, 3 or 5)")
		figure  = flag.Int("figure", 0, "print one paper figure (1, 2, 3, 4 or 6)")
		res     = flag.Bool("resources", false, "print per-instruction resource estimates")
		ver     = flag.Bool("verify", false, "run the verification matrix")
		noisy   = flag.Bool("noise", false, "sweep physical vs logical error rates over memory experiments")
		shots   = flag.Int("shots", 1000, "Monte-Carlo shots per point of the -noise sweep")
		dlist   = flag.String("dlist", "3,5,7,9", "code distances for the resource sweep (-noise defaults to 3,5)")
		d       = flag.Int("d", 3, "code distance for tables/figures")
		plist   = flag.String("plist", "1e-4,3e-4,1e-3,3e-3,1e-2", "physical error rates for the -noise sweep")
		rounds  = flag.Int("rounds", 0, "error-correction rounds per experiment (0 = d); with -surgery the merged-phase round count (pre/post fixed at 1)")
		model   = flag.String("model", "depolarizing", "noise model for the sweep: depolarizing (swept over -plist) or table5")
		seed    = flag.Int64("seed", 1, "base seed for the -noise sweep (output is deterministic per seed)")
		decode  = flag.Bool("decode", false, "with -noise (memory or -surgery sweeps): union-find-decode each shot's syndrome history")
		surgery = flag.Bool("surgery", false, "with -noise: sweep two-patch ZZ-merge/split cycles (joint-parity error) instead of idle memory")
		workers = flag.Int("workers", 0, "worker goroutines for the -noise sweep (0 = all cores)")
		jsonOut = flag.Bool("json", false, "with -noise or -surgery: emit the full run manifest as JSON instead of the table")
		metOut  = flag.String("metrics", "", "with a noise sweep: write the structured run manifest (provenance, spans, per-point metrics) to this JSON file")
		promOut = flag.String("prom", "", "with a noise sweep: write the aggregated run metrics in Prometheus text exposition format to this file")
		diagOut = flag.Bool("diag", false, "with a noise sweep: print the per-channel error-budget attribution table for every point (and record it in the manifest)")
		calOut  = flag.Bool("dem-calib", false, "with a decoded noise sweep: print per-detector observed vs DEM-predicted fire rates with calibration residuals")
		cpuProf = flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
		memProf = flag.String("memprofile", "", "write a pprof heap profile (taken at exit, after a GC) to this file")
		trcOut  = flag.String("trace", "", "write a runtime execution trace of the run to this file")
	)
	var progress diag.ProgressFlag
	flag.Var(&progress, "progress", "with a noise sweep: stream NDJSON batch progress events (bare -progress → stderr, -progress=FILE → file)")
	flag.Parse()
	// Validate every numeric flag up front: invalid inputs exit with a usage
	// error instead of reaching internal panics (negative distances would
	// otherwise blow up in grid construction with a stack trace).
	if err := validateDistance(*d); err != nil {
		usageErr(err.Error())
	}
	if *shots < 1 {
		usageErr(fmt.Sprintf("-shots must be ≥ 1, got %d", *shots))
	}
	if *rounds < 0 {
		usageErr(fmt.Sprintf("-rounds must be ≥ 0 (0 = use the code distance), got %d", *rounds))
	}
	if *workers < 0 {
		usageErr(fmt.Sprintf("-workers must be ≥ 0 (0 = all cores), got %d", *workers))
	}
	// -surgery on its own runs the noise sweep over surgery cycles, so every
	// sweep-only flag accepts either spelling.
	sweep := *noisy || *surgery
	if *jsonOut && !sweep {
		usageErr("-json requires -noise or -surgery")
	}
	if *metOut != "" && !sweep {
		usageErr("-metrics requires -noise or -surgery")
	}
	if *promOut != "" && !sweep {
		usageErr("-prom requires -noise or -surgery")
	}
	if *diagOut && !sweep {
		usageErr("-diag requires -noise or -surgery")
	}
	if *calOut && (!sweep || !*decode) {
		usageErr("-dem-calib requires a decoded sweep (-noise or -surgery, with -decode)")
	}
	if progress.Dest != "" && !sweep {
		usageErr("-progress requires -noise or -surgery")
	}
	if _, err := experiment.Model(*model, 0); sweep && err != nil {
		usageErr(fmt.Sprintf("bad -model: %v", err))
	}
	dlistVals, err := parseInts(*dlist)
	if err != nil {
		usageErr(fmt.Sprintf("bad -dlist: %v", err))
	}
	for _, dv := range dlistVals {
		if err := validateDistance(dv); err != nil {
			usageErr(fmt.Sprintf("bad -dlist entry: %v", err))
		}
	}
	plistVals, err := parseFloats(*plist)
	if err != nil {
		usageErr(fmt.Sprintf("bad -plist: %v", err))
	}
	for _, pv := range plistVals {
		if math.IsNaN(pv) || pv < 0 || pv > 1 {
			usageErr(fmt.Sprintf("bad -plist entry: %v is not a probability in [0, 1]", pv))
		}
	}
	// Profiling starts only after flag validation, so usage errors never
	// leave partial profile files behind.
	stopProfiles, err := startProfiles(*cpuProf, *memProf, *trcOut)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tiscc-bench:", err)
		os.Exit(1)
	}
	defer stopProfiles()
	if *all {
		for _, t := range []int{1, 2, 3, 5} {
			printTable(t, *d)
		}
		for _, f := range []int{1, 2, 3, 4, 6} {
			printFigure(f, *d)
		}
		printResources(dlistVals)
		runVerify()
		return
	}
	did := false
	if *table != 0 {
		printTable(*table, *d)
		did = true
	}
	if *figure != 0 {
		printFigure(*figure, *d)
		did = true
	}
	if *res {
		printResources(dlistVals)
		did = true
	}
	if *ver {
		runVerify()
		did = true
	}
	if sweep {
		// -dlist defaults differently under -noise; apply the noise default
		// only when the user left it untouched.
		ds := []int{3, 5}
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "dlist" {
				ds = dlistVals
			}
		})
		ps := plistVals
		if *model == experiment.ModelTable5 {
			ps = []float64{0} // table5 ignores -plist: one point per distance
		}
		runNoiseSweep(sweepConfig{
			ds: ds, ps: ps, rounds: *rounds, model: *model,
			decode: *decode, surgery: *surgery,
			json: *jsonOut, metricsFile: *metOut, promFile: *promOut, progress: progress,
			run: experiment.RunOptions{Shots: *shots, Seed: *seed, Workers: *workers,
				Diag: *diagOut, DemCalib: *calOut},
		})
		did = true
	}
	if !did {
		flag.Usage()
		os.Exit(2)
	}
}

// validateDistance checks a code-distance flag (the compiler accepts d ≥ 2).
func validateDistance(d int) error {
	if d < 2 {
		return fmt.Errorf("code distance must be ≥ 2, got %d", d)
	}
	return nil
}

// usageErr prints a usage error and exits with the conventional status 2.
func usageErr(msg string) {
	fmt.Fprintln(os.Stderr, "tiscc-bench:", msg)
	os.Exit(2)
}

// sweepConfig bundles the -noise sweep's flags.
type sweepConfig struct {
	ds          []int
	ps          []float64
	rounds      int
	model       string
	decode      bool
	surgery     bool
	json        bool   // emit the run manifest to stdout instead of the table
	metricsFile string // write the run manifest to this file
	promFile    string // write Prometheus text exposition to this file
	progress    diag.ProgressFlag
	run         experiment.RunOptions // shots, seed, workers and diagnostics of every point
}

// runNoiseSweep estimates logical error rates across code distances and
// physical error rates. The default workload is the memory experiment: |0̄⟩
// prepared transversally, idled for `rounds` cycles of syndrome extraction
// and transversally measured. With surgery set, the workload is the
// two-patch ZZ-merge/split cycle and the estimated quantity its joint
// parity (final Z̄Z̄ readout against the merge outcome). Each noisy shot's
// outcome — union-find-decoded from the (region-stitched) syndrome history
// when decode is set, raw readout otherwise — is compared against the
// noiseless reference. Output is deterministic for a fixed seed, regardless
// of worker count or machine.
//
// Every point is one experiment.Spec, compiled and run by the shared
// experiment pipeline. The whole sweep is recorded in a telemetry.Manifest
// — provenance, config, wall-clock stage spans (compile / noise-compile /
// decoder-compile / estimate), and one Point per (d, model) — written per
// cfg.json / metricsFile / promFile. Telemetry never touches the samplers'
// RNG, so estimates stay bit-identical with and without any of the outputs
// enabled.
func runNoiseSweep(cfg sweepConfig) {
	sp := telemetry.NewSpans()
	man := telemetry.NewManifest("tiscc-bench")
	workload := experiment.Memory
	if cfg.surgery {
		workload = experiment.Surgery
	}
	man.Config = map[string]any{
		"workload": workload, "model": cfg.model, "shots": cfg.run.Shots,
		"seed": cfg.run.Seed, "workers": cfg.run.Workers,
		"decode": cfg.decode, "rounds": cfg.rounds,
	}
	// The progress stream is shared by every point of the sweep; point labels
	// tell the interleaved runs apart.
	progW, closeProg, err := cfg.progress.Open()
	if err != nil {
		fmt.Fprintln(os.Stderr, "noise sweep:", err)
		os.Exit(1)
	}
	defer closeProg()
	cfg.run.Progress, cfg.run.Spans = progW, sp
	quiet := cfg.json // the manifest replaces the human-readable table
	if !quiet {
		desc := "memory experiments"
		if cfg.surgery {
			desc = "ZZ-merge/split cycles"
		}
		fmt.Printf("== Logical error rate vs physical error rate (%s) ==\n", desc)
		mode := "raw readout, no decoder"
		if cfg.decode {
			mode = "union-find decoded syndrome history"
		}
		fmt.Printf("model=%s, shots=%d/point, seed=%d (%s)\n",
			cfg.model, cfg.run.Shots, cfg.run.Seed, mode)
	}
	for _, d := range cfg.ds {
		circ, err := experiment.Build(experiment.Spec{Workload: workload, Distance: d, Rounds: cfg.rounds}, cfg.decode, sp)
		if err != nil {
			fmt.Fprintln(os.Stderr, "noise sweep:", err)
			return
		}
		if !quiet {
			fmt.Printf("\nd=%d (rounds=%d, %d qubits, %d instructions", d, circ.Spec.Rounds, circ.Prog.NumQubits(), circ.Prog.NumInstrs())
			if cfg.decode {
				fmt.Printf(", %d detectors", circ.Detectors.NumDetectors())
			}
			fmt.Println(")")
			fmt.Printf("  %-10s %-8s %-8s %-12s %-10s %s\n",
				"p_phys", "shots", "errors", "p_L", "stderr", "95% Wilson CI")
		}
		for _, p := range cfg.ps {
			m, _ := experiment.Model(cfg.model, p) // validated by main
			c, err := circ.Compile(m, cfg.decode, sp)
			if err != nil {
				fmt.Fprintln(os.Stderr, "noise sweep:", err)
				return
			}
			label, point := m.Name, m.Name
			if cfg.model != experiment.ModelTable5 {
				label = fmt.Sprintf("%.1e", m.P1)
				point = "p=" + label
			}
			cfg.run.Label = fmt.Sprintf("%s d=%d %s", workload, d, point)
			pt, err := c.Run(cfg.run)
			if err != nil {
				fmt.Fprintln(os.Stderr, "noise sweep:", err)
				return
			}
			man.AddPoint(pt.Telemetry)
			if quiet {
				continue
			}
			fmt.Print(pt.Tables)
			res := pt.Result
			fmt.Printf("  %-10s %-8d %-8d %-12.4e %-10.1e [%.4e, %.4e]\n",
				label, res.Shots, res.Errors, res.Rate, res.StdErr, res.WilsonLow, res.WilsonHigh)
		}
	}
	if !quiet {
		fmt.Println()
	}
	man.Finish(sp)
	if cfg.json {
		if err := man.Write(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "noise sweep:", err)
		}
	}
	var log io.Writer = os.Stdout
	if quiet {
		log = io.Discard
	}
	if err := man.WriteOutputs(cfg.metricsFile, cfg.promFile, log); err != nil {
		fmt.Fprintln(os.Stderr, "noise sweep:", err)
	}
}

// startProfiles enables the requested pprof/trace collectors and returns the
// function that flushes and closes them at exit (the heap profile is taken
// there, after a final GC).
func startProfiles(cpu, mem, trc string) (func(), error) {
	var stops []func()
	if cpu != "" {
		f, err := os.Create(cpu)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, err
		}
		stops = append(stops, func() { pprof.StopCPUProfile(); f.Close() })
	}
	if trc != "" {
		f, err := os.Create(trc)
		if err != nil {
			return nil, err
		}
		if err := trace.Start(f); err != nil {
			f.Close()
			return nil, err
		}
		stops = append(stops, func() { trace.Stop(); f.Close() })
	}
	return func() {
		for i := len(stops) - 1; i >= 0; i-- {
			stops[i]()
		}
		if mem == "" {
			return
		}
		f, err := os.Create(mem)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tiscc-bench:", err)
			return
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "tiscc-bench:", err)
		}
		f.Close()
	}, nil
}

func parseFloats(s string) ([]float64, error) {
	var out []float64
	for _, p := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, fmt.Errorf("entry %q: %v", p, err)
		}
		out = append(out, v)
	}
	return out, nil
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, p := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("entry %q: %v", p, err)
		}
		out = append(out, v)
	}
	return out, nil
}

// --- Instruction execution helpers -------------------------------------------

// instrSpec describes one member of Table 1 or Table 3.
type instrSpec struct {
	Name       string
	TilesInOut string
	PaperSteps string
	Run        func(l *instr.Layout) (instr.Result, error)
	TwoTiles   bool
	PrepBoth   bool // needs both tiles initialized first
	PrepOne    bool // needs tile a initialized first
}

var a0 = instr.TileCoord{R: 0, C: 0}
var b0 = instr.TileCoord{R: 1, C: 0}

func table1Specs() []instrSpec {
	return []instrSpec{
		{"Prepare Z", "1", "1 (0)", func(l *instr.Layout) (instr.Result, error) { return l.PrepareZ(a0) }, false, false, false},
		{"Prepare X", "1", "1 (0)", func(l *instr.Layout) (instr.Result, error) { return l.PrepareX(a0) }, false, false, false},
		{"Inject Y", "1", "0", func(l *instr.Layout) (instr.Result, error) { return l.Inject(a0, core.InjectY) }, false, false, false},
		{"Inject T", "1", "0", func(l *instr.Layout) (instr.Result, error) { return l.Inject(a0, core.InjectT) }, false, false, false},
		{"Measure Z", "1", "0", func(l *instr.Layout) (instr.Result, error) { return l.Measure(a0, pauli.Z) }, false, false, true},
		{"Measure X", "1", "0", func(l *instr.Layout) (instr.Result, error) { return l.Measure(a0, pauli.X) }, false, false, true},
		{"Pauli X/Y/Z", "1", "0", func(l *instr.Layout) (instr.Result, error) { return l.Pauli(a0, core.LogicalX) }, false, false, true},
		{"Hadamard", "1", "0", func(l *instr.Layout) (instr.Result, error) { return l.Hadamard(a0) }, false, false, true},
		{"Idle", "1", "1", func(l *instr.Layout) (instr.Result, error) { return l.Idle(a0) }, false, false, true},
		{"Measure XX", "2", "1", func(l *instr.Layout) (instr.Result, error) { return l.MeasureXX(a0, b0) }, true, true, false},
		{"Measure ZZ", "2", "1", func(l *instr.Layout) (instr.Result, error) { return l.MeasureZZ(a0, instr.TileCoord{R: 0, C: 1}) }, true, true, false},
	}
}

func table3Specs() []instrSpec {
	return []instrSpec{
		{"Bell State Preparation", "2", "1", func(l *instr.Layout) (instr.Result, error) { return l.BellPrep(a0, b0) }, true, false, false},
		{"Bell Basis Measurement", "2", "1", func(l *instr.Layout) (instr.Result, error) { return l.BellMeasure(a0, b0) }, true, true, false},
		{"Extend-Split", "2", "1", func(l *instr.Layout) (instr.Result, error) { return l.ExtendSplit(a0, b0) }, true, false, true},
		{"Merge-Contract", "2", "1", func(l *instr.Layout) (instr.Result, error) { return l.MergeContract(a0, b0) }, true, true, false},
		{"Move", "2", "1", func(l *instr.Layout) (instr.Result, error) { return l.Move(a0, b0) }, true, false, true},
		{"Patch Extension", "1/2", "1", func(l *instr.Layout) (instr.Result, error) { return l.PatchExtension(a0, b0) }, true, false, true},
		{"Patch Contraction", "2/1", "0", func(l *instr.Layout) (instr.Result, error) {
			if _, err := l.PatchExtension(a0, b0); err != nil {
				return instr.Result{}, err
			}
			return l.PatchContraction(a0, b0)
		}, true, false, true},
	}
}

// runSpec compiles the instruction in isolation (after its prerequisite
// preparations) and returns its result plus the hardware time and resource
// estimate of the instruction's own circuit slice.
func runSpec(s instrSpec, d, dt int) (instr.Result, float64, resource.Estimate, error) {
	rows, cols := 1, 1
	if s.TwoTiles {
		rows, cols = 2, 2
	}
	l, err := instr.NewLayout(rows, cols, d, d, dt, hardware.Default())
	if err != nil {
		return instr.Result{}, 0, resource.Estimate{}, err
	}
	if s.PrepOne || s.PrepBoth {
		if _, err := l.PrepareZ(a0); err != nil {
			return instr.Result{}, 0, resource.Estimate{}, err
		}
	}
	if s.PrepBoth {
		second := b0
		if s.Name == "Measure ZZ" {
			second = instr.TileCoord{R: 0, C: 1}
		}
		if _, err := l.PrepareZ(second); err != nil {
			return instr.Result{}, 0, resource.Estimate{}, err
		}
	}
	t0 := l.C.B.Now()
	n0 := len(l.Circuit().Events)
	r, err := s.Run(l)
	if err != nil {
		return instr.Result{}, 0, resource.Estimate{}, err
	}
	t1 := l.C.B.Now()
	full := l.Circuit()
	slice := &circuit.Circuit{Events: full.Events[n0:]}
	est := resource.FromCircuit(slice, hardware.Default())
	return r, float64(t1-t0) / 1e6, est, nil
}

// --- Tables -------------------------------------------------------------------

func printTable(n, d int) {
	switch n {
	case 1:
		fmt.Printf("== Table 1: local lattice-surgery instruction set (d=%d, dt=%d) ==\n", d, d)
		fmt.Printf("%-24s %-9s %-12s %-9s %-12s %-8s\n", "Instruction", "Tiles", "Steps(paper)", "Steps", "HW time(ms)", "Events")
		for _, s := range table1Specs() {
			r, ms, est, err := runSpec(s, d, d)
			if err != nil {
				fmt.Printf("%-24s ERROR: %v\n", s.Name, err)
				continue
			}
			fmt.Printf("%-24s %-9s %-12s %-9d %-12.3f %-8d\n", s.Name, s.TilesInOut, s.PaperSteps, r.TimeSteps, ms, est.Events)
		}
	case 2:
		printTable2(d)
	case 3:
		fmt.Printf("== Table 3: derived instruction set (d=%d, dt=%d) ==\n", d, d)
		fmt.Printf("%-24s %-9s %-12s %-9s %-12s %-8s\n", "Instruction", "Tiles", "Steps(paper)", "Steps", "HW time(ms)", "Events")
		for _, s := range table3Specs() {
			r, ms, est, err := runSpec(s, d, d)
			if err != nil {
				fmt.Printf("%-24s ERROR: %v\n", s.Name, err)
				continue
			}
			fmt.Printf("%-24s %-9s %-12s %-9d %-12.3f %-8d\n", s.Name, s.TilesInOut, s.PaperSteps, r.TimeSteps, ms, est.Events)
		}
	case 5:
		p := hardware.Default()
		fmt.Println("== Table 5: native trapped-ion gate set ==")
		fmt.Printf("%-12s %-10s\n", "Operation", "Time (µs)")
		rows := []struct {
			name string
			g    circuit.Gate
		}{
			{"Prepare_Z", circuit.PrepareZ}, {"Measure_Z", circuit.MeasureZ},
			{"X_pi/2", circuit.XPi2}, {"X_pi/4", circuit.XPi4},
			{"Y_pi/2", circuit.YPi2}, {"Y_pi/4", circuit.YPi4},
			{"Z_pi/2", circuit.ZPi2}, {"Z_pi/4", circuit.ZPi4}, {"Z_pi/8", circuit.ZPi8},
			{"ZZ", circuit.ZZ}, {"Move", circuit.Move},
		}
		for _, r := range rows {
			fmt.Printf("%-12s %-10.2f\n", r.name, float64(p.Duration(r.g))/1000)
		}
		fmt.Printf("%-12s %-10.2f (two per traversal)\n", "Junction", float64(p.Junction)/1000)
		fmt.Printf("zone width %.0f µm, transport %.0f m/s, junction %.0f m/s\n",
			p.ZoneWidthM*1e6, p.TransportMPS, p.JunctionMPS)
	default:
		fmt.Fprintf(os.Stderr, "unknown table %d\n", n)
	}
	fmt.Println()
}

// printTable2 exercises the Table 2 primitives at patch level.
func printTable2(d int) {
	fmt.Printf("== Table 2: surface-code primitive operations (d=%d) ==\n", d)
	fmt.Printf("%-12s %-34s %-8s %-12s %-12s\n", "Name", "Function", "Patches", "Steps(paper)", "HW time(ms)")
	type prim struct {
		name, fn, patches, steps string
		run                      func(c *core.Compiler, lq, lq2 *core.LogicalQubit) error
	}
	prims := []prim{
		{"Prepare Z", "LogicalQubit::TransversalPrepareZ", "1", "0", func(c *core.Compiler, lq, _ *core.LogicalQubit) error {
			lq.TransversalPrepareZ()
			return nil
		}},
		{"Measure Z", "LogicalQubit::TransversalMeasure", "1", "0", func(c *core.Compiler, lq, _ *core.LogicalQubit) error {
			lq.TransversalPrepareZ()
			_, err := lq.TransversalMeasure(pauli.Z)
			return err
		}},
		{"Hadamard", "LogicalQubit::TransversalHadamard", "1", "0", func(c *core.Compiler, lq, _ *core.LogicalQubit) error {
			lq.TransversalPrepareZ()
			lq.TransversalHadamard()
			return nil
		}},
		{"Inject Y/T", "LogicalQubit::InjectState", "1", "0", func(c *core.Compiler, lq, _ *core.LogicalQubit) error {
			lq.InjectState(core.InjectY)
			return nil
		}},
		{"Pauli X/Y/Z", "LogicalQubit::ApplyPauli", "1", "0", func(c *core.Compiler, lq, _ *core.LogicalQubit) error {
			lq.TransversalPrepareZ()
			lq.ApplyPauli(core.LogicalX)
			return nil
		}},
		{"Idle", "LogicalQubit::Idle", "1", "1", func(c *core.Compiler, lq, _ *core.LogicalQubit) error {
			lq.TransversalPrepareZ()
			_, err := lq.Idle(d)
			return err
		}},
		{"Merge", "core.Merge", "2", "1", func(c *core.Compiler, lq, lq2 *core.LogicalQubit) error {
			lq.TransversalPrepareZ()
			lq2.TransversalPrepareZ()
			_, err := core.Merge(lq, lq2, d)
			return err
		}},
		{"Split", "MergeResult.Split", "2", "0", func(c *core.Compiler, lq, lq2 *core.LogicalQubit) error {
			lq.TransversalPrepareZ()
			lq2.TransversalPrepareZ()
			m, err := core.Merge(lq, lq2, d)
			if err != nil {
				return err
			}
			_, err = m.Split()
			return err
		}},
	}
	gap := 1
	if d%2 == 0 {
		gap = 2
	}
	for _, p := range prims {
		c := core.NewCompiler(2*(d+gap)+2, d+4, hardware.Default())
		lq, err := c.NewLogicalQubit(d, d, core.Cell{R: 1, C: 1})
		if err != nil {
			fmt.Printf("%-12s ERROR: %v\n", p.name, err)
			continue
		}
		lq2, err := c.NewLogicalQubit(d, d, core.Cell{R: 1 + d + gap, C: 1})
		if err != nil {
			fmt.Printf("%-12s ERROR: %v\n", p.name, err)
			continue
		}
		if err := p.run(c, lq, lq2); err != nil {
			fmt.Printf("%-12s ERROR: %v\n", p.name, err)
			continue
		}
		ms := float64(c.B.Now()) / 1e6
		fmt.Printf("%-12s %-34s %-8s %-12s %-12.3f\n", p.name, p.fn, p.patches, p.steps, ms)
	}
}

// --- Figures ------------------------------------------------------------------

func printFigure(n, d int) {
	switch n {
	case 1:
		fmt.Printf("== Figure 1: standard-arrangement patch over the M/O/J tile (d=%d) ==\n", d)
		c := core.NewCompiler(d+2, d+3, hardware.Default())
		lq, _ := c.NewLogicalQubit(d, d, core.Cell{R: 1, C: 1})
		fmt.Print(lq.Render())
	case 2:
		fmt.Printf("== Figure 2: the four canonical stabilizer arrangements (d=%d) ==\n", d)
		for _, arr := range []core.Arrangement{core.Standard, core.Rotated, core.Flipped, core.RotatedFlipped} {
			c := core.NewCompiler(d+2, d+3, hardware.Default())
			lq, _ := c.NewLogicalQubit(d, d, core.Cell{R: 1, C: 1})
			lq.SetArrangement(arr)
			fmt.Print(lq.RenderStabilizerMap())
		}
	case 3:
		fmt.Printf("== Figure 3: Flip Patch corner-movement sequence (d=%d) ==\n", d)
		c := core.NewCompiler(d+2, d+3, hardware.Default())
		lq, _ := c.NewLogicalQubit(d, d, core.Cell{R: 1, C: 1})
		lq.TransversalPrepareZ()
		fmt.Print(lq.RenderStabilizerMap())
		for _, e := range []core.Edge{core.TopEdge, core.RightEdge, core.BottomEdge, core.LeftEdge} {
			if err := lq.ExtendLogicalOperatorClockwise(e, 1); err != nil {
				fmt.Println("ERROR:", err)
				return
			}
			fmt.Printf("after %v corner movement:\n", e)
			fmt.Print(lq.RenderStabilizerMap())
		}
	case 4:
		fmt.Printf("== Figure 4: Move Right then Swap Left (d=%d) ==\n", d)
		c := core.NewCompiler(d+4, d+7, hardware.Default())
		lq, _ := c.NewLogicalQubit(d, d, core.Cell{R: 1, C: 2})
		lq.TransversalPrepareZ()
		fmt.Printf("before: origin %v, %s\n", lq.Origin, lq.Arr.Name())
		fmt.Print(lq.RenderStabilizerMap())
		if err := lq.MoveRight(1); err != nil {
			fmt.Println("ERROR:", err)
			return
		}
		fmt.Printf("after Move Right: origin %v, %s\n", lq.Origin, lq.Arr.Name())
		if err := lq.SwapLeft(); err != nil {
			fmt.Println("ERROR:", err)
			return
		}
		fmt.Printf("after Swap Left: origin %v, %s\n", lq.Origin, lq.Arr.Name())
		fmt.Print(lq.RenderStabilizerMap())
	case 6:
		fmt.Printf("== Figure 6: Z and N measurement patterns (d=%d) ==\n", d)
		c := core.NewCompiler(d+2, d+3, hardware.Default())
		lq, _ := c.NewLogicalQubit(d, d, core.Cell{R: 1, C: 1})
		var zp, xp *core.Plaquette
		for _, p := range lq.Plaquettes() {
			if p.Weight() != 4 {
				continue
			}
			if p.Type == pauli.Z && zp == nil {
				zp = p
			}
			if p.Type == pauli.X && xp == nil {
				xp = p
			}
		}
		if zp != nil {
			fmt.Print(lq.RenderSchedule(zp))
		}
		if xp != nil {
			fmt.Print(lq.RenderSchedule(xp))
		}
	default:
		fmt.Fprintf(os.Stderr, "unknown figure %d\n", n)
	}
	fmt.Println()
}

// --- Resource sweep (Sec 3.4) --------------------------------------------------

func printResources(ds []int) {
	fmt.Println("== Resource estimates per instruction (Sec 3.4) ==")
	fmt.Printf("%-14s %-4s %-12s %-12s %-14s %-7s %-12s %-14s\n",
		"Instruction", "d", "time (ms)", "area (mm²)", "volume (s·mm²)", "zones", "zone-s", "active-zone-s")
	specs := []instrSpec{}
	for _, s := range table1Specs() {
		switch s.Name {
		case "Prepare Z", "Idle", "Measure Z", "Hadamard", "Measure XX", "Measure ZZ":
			specs = append(specs, s)
		}
	}
	for _, s := range specs {
		for _, d := range ds {
			_, _, est, err := runSpec(s, d, d)
			if err != nil {
				fmt.Printf("%-14s %-4d ERROR: %v\n", s.Name, d, err)
				continue
			}
			fmt.Printf("%-14s %-4d %-12.3f %-12.3f %-14.6f %-7d %-12.4f %-14.4f\n",
				s.Name, d, est.Time*1e3, est.AreaM2*1e6, est.Volume*1e6, est.Zones, est.ZoneSeconds, est.ActiveZoneSeconds)
		}
	}
	fmt.Println()
	fmt.Println("Logical tile footprint (Sec 2.3): 2⌈(dz+1)/2⌉ × 2⌈(dx+1)/2⌉ repeating units")
	fmt.Printf("%-4s %-10s %-10s\n", "d", "tile rows", "tile cols")
	for _, d := range ds {
		fmt.Printf("%-4d %-10d %-10d\n", d, instr.TileHeight(d), instr.TileWidth(d))
	}
	fmt.Println()
}

// --- Verification matrix (Sec 4) -----------------------------------------------

func runVerify() {
	fmt.Println("== Verification matrix (Sec 4, via the ORQCS-style simulator) ==")
	arrs := []core.Arrangement{core.Standard, core.Rotated, core.Flipped, core.RotatedFlipped}
	ok := func(name string, err error) {
		status := "PASS"
		if err != nil {
			status = "FAIL: " + err.Error()
		}
		fmt.Printf("  %-52s %s\n", name, status)
	}
	for _, arr := range arrs {
		for _, p := range []verify.PrepKind{verify.PrepZero, verify.PrepPlus, verify.PrepY} {
			b, err := verify.StatePrep(3, 3, arr, p, true, 7)
			if err == nil && b.MaxAbsDiff(p.Ideal()) != 0 {
				err = fmt.Errorf("bloch %v", b)
			}
			ok(fmt.Sprintf("state prep %v from %s (+round)", p, arr.Name()), err)
		}
	}
	for _, op := range []verify.OneTileOp{verify.OpIdle, verify.OpHadamard, verify.OpPauliX, verify.OpFlipPatch, verify.OpMoveRightSwapLeft} {
		ch, err := verify.OneTileChannel(3, 3, core.Standard, op, 1, 21)
		if err == nil {
			if d := ch.MaxAbsDiff(op.Ideal()); d != 0 {
				err = fmt.Errorf("channel deviates by %v", d)
			}
		}
		ok(fmt.Sprintf("process tomography: %v", op), err)
	}
	for _, vertical := range []bool{true, false} {
		name := "Measure ZZ branch check"
		if vertical {
			name = "Measure XX branch check"
		}
		_, err := verify.MeasureJointBranch(3, vertical, 11)
		ok(name, err)
	}
	_, err := verify.BellTomography(3, 13)
	ok("Bell preparation two-qubit tomography", err)
	ok("quiescence d=3 (3 rounds)", verify.Quiescence(3, 3, 17))
	ok("stabilizer group check d=2", verify.GroupCheck(2, 19))
	mean, stderr, err := verify.InjectTBloch(2, 2, 4000, 23)
	if err == nil {
		d := mean.MaxAbsDiff(verify.PrepT.Ideal())
		lim := 5*(stderr[0]+stderr[1]+stderr[2]) + 0.05
		if d > lim {
			err = fmt.Errorf("T-state bloch %v off by %v", mean, d)
		}
	}
	ok("Inject T statistical (quasi-Clifford MC)", err)
	fmt.Println()
}
