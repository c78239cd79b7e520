package serve

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"maps"
	"math"
	"reflect"
	"slices"
	"sync"
	"testing"

	"tiscc/internal/decoder"
	"tiscc/internal/experiment"
	"tiscc/internal/expr"
	"tiscc/internal/frame"
	"tiscc/internal/hardware"
	"tiscc/internal/noise"
	"tiscc/internal/orqcs"
	"tiscc/internal/pauli"
	"tiscc/internal/verify"
)

// compileFresh builds the artifact for k straight from the compiler, without
// the shapes and plans CompileArtifact compiles through — the reference side
// of the golden bit-identity tests.
func compileFresh(t *testing.T, k Key) *Artifact {
	t.Helper()
	k = k.Normalize()
	rounds := k.Rounds
	if rounds <= 0 {
		rounds = k.Distance
	}
	a := &Artifact{Key: k}
	var (
		prog *orqcs.Program
		dets *decoder.Detectors
	)
	switch k.Workload {
	case WorkloadMemory:
		mem, err := verify.MemoryExperiment(k.Distance, rounds, pauli.Z)
		if err != nil {
			t.Fatalf("MemoryExperiment: %v", err)
		}
		prog, a.Outcome, a.Reference = mem.Prog, mem.Outcome, mem.Reference
		if dets, err = decoder.Extract(mem); err != nil {
			t.Fatalf("Extract: %v", err)
		}
	case WorkloadSurgery:
		s, err := verify.SurgeryExperiment(k.Distance, 1, rounds, 1, pauli.Z)
		if err != nil {
			t.Fatalf("SurgeryExperiment: %v", err)
		}
		prog, a.Outcome, a.Reference = s.Prog, s.Outcome, s.Reference
		if dets, err = decoder.ExtractSurgery(s); err != nil {
			t.Fatalf("ExtractSurgery: %v", err)
		}
	default:
		t.Fatalf("unknown workload %q", k.Workload)
	}
	var model noise.Model
	if k.Model == ModelTable5 {
		model = noise.PaperTable5(hardware.Default())
	} else {
		model = noise.Depolarizing(k.P)
	}
	a.Sched = noise.Compile(model, prog)
	graph, err := decoder.CompileGraph(dets, a.Sched)
	if err != nil {
		t.Fatalf("CompileGraph: %v", err)
	}
	a.Prog, a.Graph = prog, graph
	return a
}

func TestContainerRoundTrip(t *testing.T) {
	fresh := compileFresh(t, Key{Workload: WorkloadMemory, Distance: 3, Model: ModelDepolarizing, P: 1e-3})

	prog, err := DecodeProgram(EncodeProgram(fresh.Prog))
	if err != nil {
		t.Fatalf("DecodeProgram: %v", err)
	}
	if prog.NumQubits() != fresh.Prog.NumQubits() || prog.NumInstrs() != fresh.Prog.NumInstrs() {
		t.Fatalf("program shape changed: %d qubits / %d instrs, want %d / %d",
			prog.NumQubits(), prog.NumInstrs(), fresh.Prog.NumQubits(), fresh.Prog.NumInstrs())
	}
	// Re-encoding the decoded program must reproduce the bytes exactly: the
	// format has one canonical encoding per artifact.
	if !bytes.Equal(EncodeProgram(prog), EncodeProgram(fresh.Prog)) {
		t.Fatal("re-encoded program differs from the original encoding")
	}

	sched, err := DecodeSchedule(EncodeSchedule(fresh.Sched), prog)
	if err != nil {
		t.Fatalf("DecodeSchedule: %v", err)
	}
	if sched.NumFaultSites() != fresh.Sched.NumFaultSites() {
		t.Fatalf("schedule fault sites %d, want %d", sched.NumFaultSites(), fresh.Sched.NumFaultSites())
	}
	if !bytes.Equal(EncodeSchedule(sched), EncodeSchedule(fresh.Sched)) {
		t.Fatal("re-encoded schedule differs from the original encoding")
	}
	// The draw kernel's reject bounds are rebuilt on decode: the decoded
	// schedule must fire exactly the compiled one's faults (P = 0 sites are
	// covered by noise's TestDecodedScheduleFires).
	for shot := 0; shot < 256; shot++ {
		seed := orqcs.ShotSeed(1, shot)
		got, want := sched.FiredFaults(seed, nil), fresh.Sched.FiredFaults(seed, nil)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("shot %d: decoded schedule fired %v, compiled %v", shot, got, want)
		}
	}

	graph, err := DecodeGraph(EncodeGraph(fresh.Graph))
	if err != nil {
		t.Fatalf("DecodeGraph: %v", err)
	}
	if len(graph.Edges()) != len(fresh.Graph.Edges()) {
		t.Fatalf("graph edges %d, want %d", len(graph.Edges()), len(fresh.Graph.Edges()))
	}
	if !reflect.DeepEqual(graph.Edges(), fresh.Graph.Edges()) {
		t.Fatal("decoded graph edges differ from the originals")
	}
	if !bytes.Equal(EncodeGraph(graph), EncodeGraph(fresh.Graph)) {
		t.Fatal("re-encoded graph differs from the original encoding")
	}
}

func TestBundleRoundTrip(t *testing.T) {
	for _, k := range []Key{
		{Workload: WorkloadMemory, Distance: 3, Model: ModelDepolarizing, P: 1e-3},
		{Workload: WorkloadSurgery, Distance: 3, Model: ModelTable5},
	} {
		art, err := CompileArtifact(k)
		if err != nil {
			t.Fatalf("CompileArtifact(%v): %v", k, err)
		}
		enc := EncodeBundle(art)
		if len(enc) != art.BundleBytes {
			t.Fatalf("re-encoded bundle is %d bytes, artifact says %d", len(enc), art.BundleBytes)
		}
		dec, err := DecodeBundle(enc)
		if err != nil {
			t.Fatalf("DecodeBundle(%v): %v", k, err)
		}
		if dec.Key != art.Key || dec.Reference != art.Reference || !dec.Outcome.Equal(art.Outcome) {
			t.Fatalf("bundle metadata changed: %+v vs %+v", dec.Key, art.Key)
		}
		if dec.BundleCRC != art.BundleCRC {
			t.Fatalf("bundle CRC %08x, want %08x", dec.BundleCRC, art.BundleCRC)
		}
	}
}

// TestDecodeBundleRejectsRecordRange pins the bundle's record-range check:
// raw estimates compile the outcome's effect table from its record ids, so
// a CRC-valid bundle whose outcome names a record the program never
// measures must fail to decode instead of reading a record that is not there.
func TestDecodeBundleRejectsRecordRange(t *testing.T) {
	art, err := CompileArtifact(Key{Workload: WorkloadMemory, Distance: 3, Model: ModelDepolarizing, P: 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	n := int32(art.Prog.NumRecords())
	for _, id := range []int32{n, n + 1000, -2} {
		bad := *art
		bad.Outcome = art.Outcome.Xor(expr.FromID(id))
		if _, err := DecodeBundle(EncodeBundle(&bad)); err == nil {
			t.Errorf("outcome record %d (program has %d records): decode succeeded, want error", id, n)
		}
	}
	if _, err := DecodeBundle(EncodeBundle(art)); err != nil {
		t.Fatalf("valid bundle: %v", err)
	}
}

func TestDecodeRejectsHeaderDamage(t *testing.T) {
	art := compileFresh(t, Key{Workload: WorkloadMemory, Distance: 3, Model: ModelDepolarizing, P: 1e-3})
	good := EncodeProgram(art.Prog)

	cases := map[string][]byte{
		"empty":     nil,
		"truncated": good[:len(good)-3],
		"bad magic": append([]byte("XSCA"), good[4:]...),
		"version skew": func() []byte {
			b := append([]byte(nil), good...)
			b[4] = 99 // little-endian version low byte
			return b
		}(),
		"wrong kind": func() []byte {
			b := append([]byte(nil), good...)
			b[6] = kindGraph
			return b
		}(),
		"payload corrupted": func() []byte {
			b := append([]byte(nil), good...)
			b[len(b)-1] ^= 0x40
			return b
		}(),
		"trailing bytes": append(append([]byte(nil), good...), 0),
	}
	for name, data := range cases {
		if _, err := DecodeProgram(data); err == nil {
			t.Errorf("%s: decode succeeded, want error", name)
		}
	}
}

// goldenKeys are the configurations the bit-identity tests cover: both
// distances the issue names, both workloads, both model families.
func goldenKeys() []Key {
	return []Key{
		{Workload: WorkloadMemory, Distance: 3, Model: ModelDepolarizing, P: 2e-3},
		{Workload: WorkloadMemory, Distance: 5, Model: ModelTable5},
		{Workload: WorkloadSurgery, Distance: 3, Model: ModelDepolarizing, P: 1e-3},
	}
}

// TestDecodedArtifactBitIdentical proves the determinism contract: running
// shots on a decode(encode(...)) artifact produces the same estimate and the
// same per-shot record tables as the freshly compiled one, for both seeds and
// both worker counts, so a served (cached, decoded) artifact is
// indistinguishable from an in-process compile.
func TestDecodedArtifactBitIdentical(t *testing.T) {
	const shots = 200
	for _, k := range goldenKeys() {
		fresh := compileFresh(t, k)
		decoded, err := DecodeBundle(EncodeBundle(fresh))
		if err != nil {
			t.Fatalf("DecodeBundle(%v): %v", k, err)
		}
		for _, seed := range []int64{1, 424242} {
			for _, workers := range []int{1, 4} {
				name := fmt.Sprintf("%s/d%d/seed%d/w%d", k.Workload, k.Distance, seed, workers)
				want := runArtifact(t, fresh, shots, seed, workers)
				got := runArtifact(t, decoded, shots, seed, workers)
				if want.res != got.res {
					t.Errorf("%s: result differs:\nfresh:   %+v\ndecoded: %+v", name, want.res, got.res)
				}
				if !reflect.DeepEqual(want.records, got.records) {
					t.Errorf("%s: per-shot record tables differ", name)
				}
			}
		}
	}
}

// serveMixedKeys are perfbench's serve-mixed keys (perfbench/main.go), one
// slice per client in the order the client asks for them.
var serveMixedKeys = [][]Key{{
	{Workload: WorkloadMemory, Distance: 3, Model: ModelDepolarizing, P: 1e-3},
	{Workload: WorkloadMemory, Distance: 5, Model: ModelDepolarizing, P: 1e-3},
	{Workload: WorkloadSurgery, Distance: 3, Model: ModelDepolarizing, P: 1e-3},
	{Workload: WorkloadMemory, Distance: 5, Model: ModelDepolarizing, P: 2e-3},
	{Workload: WorkloadMemory, Distance: 3, Model: ModelDepolarizing, P: 2e-3},
	{Workload: WorkloadSurgery, Distance: 3, Model: ModelDepolarizing, P: 2e-3},
	{Workload: WorkloadMemory, Distance: 5, Model: ModelTable5},
}, {
	{Workload: WorkloadMemory, Distance: 3, Model: ModelDepolarizing, P: 3e-3},
	{Workload: WorkloadMemory, Distance: 5, Model: ModelDepolarizing, P: 3e-3},
	{Workload: WorkloadSurgery, Distance: 3, Model: ModelDepolarizing, P: 3e-3},
	{Workload: WorkloadMemory, Distance: 5, Model: ModelDepolarizing, P: 5e-3},
	{Workload: WorkloadMemory, Distance: 3, Model: ModelDepolarizing, P: 5e-3},
	{Workload: WorkloadSurgery, Distance: 3, Model: ModelDepolarizing, P: 5e-3},
	{Workload: WorkloadSurgery, Distance: 3, Model: ModelTable5},
}}

// TestServedArtifactsRoundTrip compiles every serve-mixed key on one cache,
// one goroutine per client asking for its keys in order, so most keys
// compile on a cached shape while the other client estimates on artifacts
// of that shape. A served artifact shares its shape's program and its
// plan's effect table and no miss decodes it, so this is where each one
// meets the wire format: its bundle must decode to the same sizes and
// checksum, and the decoded artifact must estimate exactly as the served
// one for both seeds and both worker counts. Run under -race in CI.
func TestServedArtifactsRoundTrip(t *testing.T) {
	c := NewCache(64<<20, nil, nil)
	var wg sync.WaitGroup
	for _, keys := range serveMixedKeys {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, k := range keys {
				if err := checkServedRoundTrip(c, k); err != nil {
					t.Errorf("%v: %v", k, err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// checkServedRoundTrip serves k from c and compares the artifact with its
// decoded bundle.
func checkServedRoundTrip(c *Cache, k Key) error {
	const shots = 256
	served, _, err := c.Get(k)
	if err != nil {
		return err
	}
	dec, err := DecodeBundle(EncodeBundle(served))
	if err != nil {
		return err
	}
	type accounting struct {
		prog, sched, graph, bundle int
		crc                        uint32
	}
	want := accounting{served.ProgBytes, served.SchedBytes, served.GraphBytes, served.BundleBytes, served.BundleCRC}
	if got := (accounting{dec.ProgBytes, dec.SchedBytes, dec.GraphBytes, dec.BundleBytes, dec.BundleCRC}); got != want {
		return fmt.Errorf("decoded bundle accounts %+v, served artifact %+v", got, want)
	}
	for _, seed := range []int64{1, 424242} {
		for _, workers := range []int{1, 4} {
			var res [2]noise.Result
			for i, a := range []*Artifact{served, dec} {
				if res[i], err = experiment.Estimate(a.Sched, a.Outcome, a.Reference, noise.Options{
					Shots: shots, Seed: seed, Workers: workers, Decoder: a.Graph}); err != nil {
					return err
				}
			}
			if res[0] != res[1] {
				return fmt.Errorf("seed %d workers %d: result differs:\nserved:  %+v\ndecoded: %+v", seed, workers, res[0], res[1])
			}
		}
	}
	return nil
}

// BenchmarkShapeCompile times a miss on a cached shape: with the shape
// built and its plan kept by a first compile, each op compiles another p
// on it, as a sweep's later points do.
func BenchmarkShapeCompile(b *testing.B) {
	for _, k := range []Key{
		{Workload: WorkloadMemory, Distance: 5, Model: ModelDepolarizing, P: 2e-3},
		{Workload: WorkloadSurgery, Distance: 3, Model: ModelDepolarizing, P: 2e-3},
	} {
		b.Run(fmt.Sprintf("%s/d=%d", k.Workload, k.Distance), func(b *testing.B) {
			k = k.Normalize()
			sh, err := newShape(shapeKey(k))
			if err != nil {
				b.Fatal(err)
			}
			warm := k
			warm.P = 1e-3
			if _, err := sh.compile(warm); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sh.compile(k); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

type artifactRun struct {
	res     noise.Result
	records []map[int32]bool
}

func runArtifact(t *testing.T, a *Artifact, shots int, seed int64, workers int) artifactRun {
	t.Helper()
	sim, err := frame.New(a.Prog, a.Sched)
	if err != nil {
		t.Fatalf("frame.New: %v", err)
	}
	res, err := noise.EstimateLogicalError(a.Sched, a.Outcome, a.Reference, noise.Options{
		Shots: shots, Seed: seed, Workers: workers,
		Decoder: a.Graph, Sampler: sim,
	})
	if err != nil {
		t.Fatalf("EstimateLogicalError: %v", err)
	}
	recs := make([]map[int32]bool, shots)
	b := sim.NewBatch()
	for first := 0; first < shots; first += 64 {
		b.Run(first, min(64, shots-first), seed)
		for lane := range min(64, shots-first) {
			recs[first+lane] = maps.Clone(b.Records(lane))
		}
	}
	return artifactRun{res: res, records: recs}
}

// --- Fuzzers -----------------------------------------------------------------
//
// Each fuzzer seeds the corpus with a valid encoding plus systematic damage
// and requires decoding to fail cleanly — an error, never a panic or a
// runaway allocation.

func fuzzCorpus(f *testing.F, valid []byte) {
	f.Add(valid)
	f.Add([]byte{})
	f.Add(valid[:len(valid)/2])
	f.Add(append(append([]byte(nil), valid...), 0xff))
	skew := append([]byte(nil), valid...)
	skew[4], skew[5] = 0xff, 0xff
	f.Add(skew)
	flip := append([]byte(nil), valid...)
	flip[len(flip)/2] ^= 0x80
	f.Add(flip)
}

func FuzzDecodeProgram(f *testing.F) {
	art, err := CompileArtifact(Key{Workload: WorkloadMemory, Distance: 3, Model: ModelDepolarizing, P: 1e-3})
	if err != nil {
		f.Fatalf("CompileArtifact: %v", err)
	}
	fuzzCorpus(f, EncodeProgram(art.Prog))
	f.Fuzz(func(t *testing.T, data []byte) {
		_, _ = DecodeProgram(data) // must not panic
	})
}

func FuzzDecodeSchedule(f *testing.F) {
	art, err := CompileArtifact(Key{Workload: WorkloadMemory, Distance: 3, Model: ModelDepolarizing, P: 1e-3})
	if err != nil {
		f.Fatalf("CompileArtifact: %v", err)
	}
	prog := art.Prog
	fuzzCorpus(f, EncodeSchedule(art.Sched))
	f.Fuzz(func(t *testing.T, data []byte) {
		_, _ = DecodeSchedule(data, prog) // must not panic
		_, _ = DecodeSchedule(data, nil)  // nil program must error, not panic
	})
}

// foreignGraphBundle is a CRC-valid bundle whose graph was compiled
// against the Table 5 schedule of the program its Depolarizing schedule
// belongs to: its effect table numbers other fault sites.
func foreignGraphBundle(t testing.TB) []byte {
	art, err := CompileArtifact(Key{Workload: WorkloadMemory, Distance: 3, Model: ModelDepolarizing, P: 1e-3})
	if err != nil {
		t.Fatalf("CompileArtifact: %v", err)
	}
	other, err := CompileArtifact(Key{Workload: WorkloadMemory, Distance: 3, Model: ModelTable5})
	if err != nil {
		t.Fatalf("CompileArtifact: %v", err)
	}
	bad := *art
	bad.Graph = other.Graph
	return EncodeBundle(&bad)
}

// TestDecodeBundleRejectsForeignGraph pins the bundle's schedule binding:
// decoded estimates index the graph's effect table by the schedule's
// fault sites and their kinds, so a graph compiled against another schedule
// must fail to decode instead of decoding the wrong faults.
func TestDecodeBundleRejectsForeignGraph(t *testing.T) {
	if _, err := DecodeBundle(foreignGraphBundle(t)); err == nil {
		t.Fatal("a bundle whose graph belongs to another schedule decoded")
	}
}

func FuzzDecodeGraph(f *testing.F) {
	art, err := CompileArtifact(Key{Workload: WorkloadMemory, Distance: 3, Model: ModelDepolarizing, P: 1e-3})
	if err != nil {
		f.Fatalf("CompileArtifact: %v", err)
	}
	fuzzCorpus(f, EncodeGraph(art.Graph))
	// CRC-valid damage to the effect table at the payload's tail: the
	// last detector ids out of range, and missing ids.
	payload := decoder.AppendGraph(nil, art.Graph)
	for _, last := range []uint32{math.MaxInt32, math.MaxUint32} {
		bad := slices.Clone(payload)
		binary.LittleEndian.PutUint32(bad[len(bad)-4:], last)
		f.Add(encodeContainer(kindGraph, bad))
	}
	f.Add(encodeContainer(kindGraph, payload[:len(payload)-4]))
	f.Fuzz(func(t *testing.T, data []byte) {
		_, _ = DecodeGraph(data) // must not panic
	})
}

func FuzzDecodeBundle(f *testing.F) {
	art, err := CompileArtifact(Key{Workload: WorkloadMemory, Distance: 3, Model: ModelDepolarizing, P: 1e-3})
	if err != nil {
		f.Fatalf("CompileArtifact: %v", err)
	}
	fuzzCorpus(f, EncodeBundle(art))
	f.Add(foreignGraphBundle(f))
	f.Fuzz(func(t *testing.T, data []byte) {
		a, err := DecodeBundle(data) // must not panic
		if err != nil {
			return
		}
		// A bundle that decodes must also estimate without panicking: its
		// record ids all name the program's records, and its effect
		// table covers the schedule's fault sites and kinds.
		_, _ = experiment.Estimate(a.Sched, a.Outcome, a.Reference,
			noise.Options{Shots: 64, Seed: 1, Workers: 1, Decoder: a.Graph})
	})
}
