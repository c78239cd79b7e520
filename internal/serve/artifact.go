// Package serve turns the compile-once/run-many pipeline into a long-running
// estimation service: a versioned binary wire format for compiled artifacts
// (lowered program, fault schedule, decoding graph), an in-process memoizing
// compile cache with singleflight dedup and an LRU byte budget, and an HTTP
// server exposing POST /v1/estimate with streaming NDJSON progress.
//
// Determinism is the load-bearing property: artifacts are pure functions of
// (workload, distance, rounds, model), per-shot seeds derive from
// orqcs.ShotSeed(base, shot) independent of worker scheduling, and a served
// artifact — which shares its shape's program and its plan's effect table —
// estimates exactly as its decoded bundle does, so any batch of any sweep is
// recomputable anywhere from the bytes — concurrent requests can share one
// warm cache and still answer byte-for-byte identically.
package serve

import (
	"fmt"
	"hash/crc32"
	"sync"

	"tiscc/internal/decoder"
	"tiscc/internal/experiment"
	"tiscc/internal/expr"
	"tiscc/internal/noise"
	"tiscc/internal/orqcs"
	"tiscc/internal/wire"
)

// FormatVersion is the artifact wire-format version. Decoders reject any
// other version: artifacts never migrate silently across format changes.
// Version 2 added the decoding graph's effect table.
const FormatVersion uint16 = 2

// artifactMagic leads every container, so a foreign file fails fast.
const artifactMagic = "TSCA"

// Artifact kinds, one per payload type in a container header.
const (
	kindProgram  uint8 = 1
	kindSchedule uint8 = 2
	kindGraph    uint8 = 3
	kindBundle   uint8 = 4
)

func kindName(k uint8) string {
	switch k {
	case kindProgram:
		return "program"
	case kindSchedule:
		return "schedule"
	case kindGraph:
		return "graph"
	case kindBundle:
		return "bundle"
	}
	return fmt.Sprintf("kind-%d", k)
}

// containerHeader is the length of a container's header: magic, format
// version, kind, payload length, checksum.
const containerHeader = len(artifactMagic) + 2 + 1 + 8 + 4

// encodeContainer wraps a payload in the self-describing artifact header.
func encodeContainer(kind uint8, payload []byte) []byte {
	return append(appendHeader(make([]byte, 0, containerHeader+len(payload)), kind, payload), payload...)
}

// appendHeader appends the container header of payload: magic, format
// version, kind, payload length, CRC-32 (IEEE) checksum.
func appendHeader(buf []byte, kind uint8, payload []byte) []byte {
	buf = append(buf, artifactMagic...)
	buf = wire.AppendU16(buf, FormatVersion)
	buf = wire.AppendU8(buf, kind)
	buf = wire.AppendU64(buf, uint64(len(payload)))
	return wire.AppendU32(buf, crc32.ChecksumIEEE(payload))
}

// decodeContainer unwraps one container, verifying magic, version, kind,
// length and checksum before any payload byte is interpreted.
func decodeContainer(data []byte, wantKind uint8) ([]byte, error) {
	r := wire.NewReader(data)
	magic := make([]byte, 0, len(artifactMagic))
	for i := 0; i < len(artifactMagic); i++ {
		magic = append(magic, r.U8())
	}
	version := r.U16()
	kind := r.U8()
	length := r.U64()
	sum := r.U32()
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("serve: artifact header: %w", err)
	}
	if string(magic) != artifactMagic {
		return nil, fmt.Errorf("serve: bad artifact magic %q", magic)
	}
	if version != FormatVersion {
		return nil, fmt.Errorf("serve: artifact format version %d, this build reads %d", version, FormatVersion)
	}
	if kind != wantKind {
		return nil, fmt.Errorf("serve: artifact kind %s, want %s", kindName(kind), kindName(wantKind))
	}
	if length != uint64(r.Remaining()) {
		return nil, fmt.Errorf("serve: artifact payload length %d, header says %d", r.Remaining(), length)
	}
	payload := data[len(data)-r.Remaining():]
	if got := crc32.ChecksumIEEE(payload); got != sum {
		return nil, fmt.Errorf("serve: artifact checksum %08x, header says %08x", got, sum)
	}
	return payload, nil
}

// EncodeProgram serializes a compiled program into a versioned, checksummed
// artifact container.
func EncodeProgram(p *orqcs.Program) []byte {
	return encodeContainer(kindProgram, orqcs.AppendProgram(nil, p))
}

// DecodeProgram decodes a program artifact. Truncated, corrupted or
// version-skewed bytes return an error without panicking.
func DecodeProgram(data []byte) (*orqcs.Program, error) {
	payload, err := decodeContainer(data, kindProgram)
	if err != nil {
		return nil, err
	}
	return orqcs.DecodeProgram(payload)
}

// EncodeSchedule serializes a compiled fault schedule into an artifact
// container (the program travels separately; see noise.AppendSchedule).
func EncodeSchedule(s *noise.Schedule) []byte {
	return encodeContainer(kindSchedule, noise.AppendSchedule(nil, s))
}

// DecodeSchedule decodes a schedule artifact against prog, the program it
// was compiled for.
func DecodeSchedule(data []byte, prog *orqcs.Program) (*noise.Schedule, error) {
	payload, err := decodeContainer(data, kindSchedule)
	if err != nil {
		return nil, err
	}
	return noise.DecodeSchedule(payload, prog)
}

// EncodeGraph serializes a compiled decoding graph into an artifact
// container.
func EncodeGraph(g *decoder.Graph) []byte {
	return encodeContainer(kindGraph, decoder.AppendGraph(nil, g))
}

// DecodeGraph decodes a graph artifact.
func DecodeGraph(data []byte) (*decoder.Graph, error) {
	payload, err := decodeContainer(data, kindGraph)
	if err != nil {
		return nil, err
	}
	return decoder.DecodeGraph(payload)
}

// Artifact is one cached compilation: everything a request needs to run
// shots, plus the deterministic wire accounting the server reports. An
// artifact compiled on a shape shares the shape's program, and its graph
// shares the effect table of the plan it was weighed on; nothing in it is
// written after compile, so concurrent requests read it freely.
type Artifact struct {
	Key Key

	Prog      *orqcs.Program
	Sched     *noise.Schedule
	Graph     *decoder.Graph
	Outcome   expr.Expr
	Reference bool

	// Encoded sizes and checksums of the three sub-artifacts and the bundle
	// (pure functions of the key — safe to echo in byte-identical responses).
	ProgBytes, SchedBytes, GraphBytes int
	BundleBytes                       int
	BundleCRC                         uint32

	// Distance is the decoding graph's graphlike circuit distance, computed
	// once by CompileArtifact so requests never pay for the search.
	Distance int
}

// EncodeBundle serializes a full artifact — request key, outcome formula,
// reference bit, and the three nested sub-containers — into one bundle
// container.
func EncodeBundle(a *Artifact) []byte {
	buf := appendBundleHead(make([]byte, 0, a.BundleBytes), a)
	buf = wire.AppendBytes(buf, EncodeProgram(a.Prog))
	buf = wire.AppendBytes(buf, EncodeSchedule(a.Sched))
	buf = wire.AppendBytes(buf, EncodeGraph(a.Graph))
	return encodeContainer(kindBundle, buf)
}

// appendBundleHead appends what a's bundle payload holds before its
// sub-containers: the key, the reference bit and the outcome formula.
func appendBundleHead(buf []byte, a *Artifact) []byte {
	buf = wire.AppendString(buf, a.Key.Workload)
	buf = wire.AppendU32(buf, uint32(a.Key.Distance))
	buf = wire.AppendU32(buf, uint32(a.Key.Rounds))
	buf = wire.AppendString(buf, a.Key.Model)
	buf = wire.AppendF64(buf, a.Key.P)
	buf = wire.AppendBool(buf, a.Reference)
	buf = wire.AppendBool(buf, a.Outcome.Const)
	buf = wire.AppendU32(buf, uint32(len(a.Outcome.IDs)))
	for _, id := range a.Outcome.IDs {
		buf = wire.AppendI32(buf, id)
	}
	return buf
}

// DecodeBundle decodes a bundle artifact, wiring the schedule to the
// decoded program. Every layer is validated: container header, nested
// sub-containers, payload invariants.
func DecodeBundle(data []byte) (*Artifact, error) {
	payload, err := decodeContainer(data, kindBundle)
	if err != nil {
		return nil, err
	}
	r := wire.NewReader(payload)
	a := &Artifact{}
	a.Key.Workload = r.String()
	a.Key.Distance = int(r.U32())
	a.Key.Rounds = int(r.U32())
	a.Key.Model = r.String()
	a.Key.P = r.F64()
	a.Reference = r.Bool()
	a.Outcome.Const = r.Bool()
	nIDs := r.Count(4)
	if nIDs > 0 {
		a.Outcome.IDs = make([]int32, nIDs)
		for i := range a.Outcome.IDs {
			a.Outcome.IDs[i] = r.I32()
		}
	}
	prog, sched, graph := r.Bytes(), r.Bytes(), r.Bytes()
	if err := r.Finish(); err != nil {
		return nil, fmt.Errorf("serve: decode bundle: %w", err)
	}
	if a.Prog, err = DecodeProgram(prog); err != nil {
		return nil, fmt.Errorf("serve: bundle program: %w", err)
	}
	if a.Sched, err = DecodeSchedule(sched, a.Prog); err != nil {
		return nil, fmt.Errorf("serve: bundle schedule: %w", err)
	}
	if a.Graph, err = DecodeGraph(graph); err != nil {
		return nil, fmt.Errorf("serve: bundle graph: %w", err)
	}
	if err := a.check(); err != nil {
		return nil, err
	}
	a.ProgBytes, a.SchedBytes, a.GraphBytes = len(prog), len(sched), len(graph)
	a.BundleBytes = containerHeader + len(payload)
	a.BundleCRC = crc32.ChecksumIEEE(payload)
	return a, nil
}

// check reports an error unless a's parts fit together. Raw estimates
// compile the outcome's effect table from its record ids, so every id must
// name one of the program's records; decoded estimates index the graph's
// effect table by the schedule's fault sites, so the graph must have been
// compiled against it.
func (a *Artifact) check() error {
	if err := a.Outcome.CheckRecords(a.Prog.NumRecords()); err != nil {
		return fmt.Errorf("serve: bundle outcome: %w", err)
	}
	if err := a.Graph.CheckSchedule(a.Sched); err != nil {
		return fmt.Errorf("serve: bundle graph: %w", err)
	}
	return nil
}

// accountScratch holds account's scratch buffers between misses.
var accountScratch = sync.Pool{New: func() any { return new([]byte) }}

// account fills in a's wire accounting — the sub-container sizes, the
// bundle size and its checksum — in one streaming pass that keeps no
// encoding: the checksum runs over the bundle payload piece by piece, the
// head, prog (the program's container, which the shape keeps encoded),
// then the schedule and graph sub-containers, each payload encoded in turn
// into one scratch buffer, which later misses reuse.
func (a *Artifact) account(prog []byte) {
	var crc uint32
	n := 0
	add := func(b []byte) {
		crc = crc32.Update(crc, crc32.IEEETable, b)
		n += len(b)
	}
	// sub adds a sub-container of payload behind its wire.AppendBytes
	// length prefix and returns the container's size.
	var head [4 + containerHeader]byte
	sub := func(kind uint8, payload []byte) int {
		add(appendHeader(wire.AppendU32(head[:0], uint32(containerHeader+len(payload))), kind, payload))
		add(payload)
		return containerHeader + len(payload)
	}
	scratch := accountScratch.Get().(*[]byte)
	defer accountScratch.Put(scratch)
	buf := wire.AppendU32(appendBundleHead((*scratch)[:0], a), uint32(len(prog)))
	add(buf)
	add(prog)
	buf = noise.AppendSchedule(buf[:0], a.Sched)
	a.SchedBytes = sub(kindSchedule, buf)
	buf = decoder.AppendGraph(buf[:0], a.Graph)
	a.GraphBytes = sub(kindGraph, buf)
	*scratch = buf
	a.ProgBytes = len(prog)
	a.BundleBytes = containerHeader + n
	a.BundleCRC = crc
}

// Workload and model names accepted by CompileArtifact and the HTTP API
// (the experiment package's names).
const (
	WorkloadMemory  = experiment.Memory
	WorkloadSurgery = experiment.Surgery

	ModelDepolarizing = experiment.ModelDepolarizing
	ModelTable5       = experiment.ModelTable5
)

// CompileArtifact compiles the artifact for one cache key through the
// experiment pipeline — the workload's circuit lowered to a program, the
// noise model flattened to a fault schedule, and the detector structure
// compiled to a union-find decoding graph — and sizes and checksums its
// bundle without encoding it whole (see shape.compile). Its bundle decodes
// to an artifact that estimates bit-identically; the serve tests check
// that on every key of a mixed sweep.
// It builds the key's shape afresh; the cache compiles on cached shapes.
func CompileArtifact(k Key) (*Artifact, error) {
	sh, err := newShape(k)
	if err != nil {
		return nil, err
	}
	return sh.compile(k)
}

// shape is the model-independent part of every artifact of one
// (workload, distance, rounds): the circuit built for decoding, which
// keeps its decoding-graph plans (experiment.Circuit), and its program's
// encoded container, kept only as bundle size and checksum input. Every
// artifact compiled on the shape shares the circuit's program, and its
// graph shares the effect table of the plan it was weighed on. Compiling
// a key on a cached shape flattens the noise model and re-weighs a plan;
// the bytes are CompileArtifact's on a fresh shape.
type shape struct {
	circ *experiment.Circuit
	prog []byte // EncodeProgram of the circuit's program
}

// shapeKey names k's shape: k normalized, with its model and p cleared.
func shapeKey(k Key) Key {
	k = k.Normalize()
	k.Model, k.P = "", 0
	return k
}

// newShape builds k's shape.
func newShape(k Key) (*shape, error) {
	c, err := experiment.Build(experiment.Spec{Workload: k.Workload, Distance: k.Distance, Rounds: k.Rounds}, true, nil)
	if err != nil {
		return nil, err
	}
	return &shape{circ: c, prog: EncodeProgram(c.Prog)}, nil
}

// compile compiles k's artifact on the shape: the circuit compiled against
// k's model, keeping the schedule and the graph decoder.Plans weighed,
// checked to fit together as DecodeBundle checks a decoded bundle, and
// accounted in one streaming pass over its bundle's bytes. The graph
// distance is searched once per plan.
func (sh *shape) compile(k Key) (*Artifact, error) {
	spec, err := k.Spec()
	if err != nil {
		return nil, err
	}
	c, err := sh.circ.Compile(spec.Model, true, nil)
	if err != nil {
		return nil, err
	}
	a := &Artifact{Key: k, Prog: c.Prog, Sched: c.Sched, Graph: c.Graph, Outcome: c.Outcome, Reference: c.Reference}
	if err := a.check(); err != nil {
		return nil, fmt.Errorf("serve: compiled artifact: %w", err)
	}
	a.account(sh.prog)
	a.Distance = c.Graph.Distance()
	return a, nil
}

// cost is the shape's charge against the cache's byte budget: its encoded
// program twice (the container and the program it encodes) plus the
// tables of the plans its circuit keeps.
func (sh *shape) cost() int { return 2*len(sh.prog) + sh.circ.PlanBytes() }
