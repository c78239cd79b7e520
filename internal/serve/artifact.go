// Package serve turns the compile-once/run-many pipeline into a long-running
// estimation service: a versioned binary wire format for compiled artifacts
// (lowered program, fault schedule, decoding graph), an in-process memoizing
// compile cache with singleflight dedup and an LRU byte budget, and an HTTP
// server exposing POST /v1/estimate with streaming NDJSON progress.
//
// Determinism is the load-bearing property: artifacts are pure functions of
// (workload, distance, rounds, model), per-shot seeds derive from
// orqcs.ShotSeed(base, shot) independent of worker scheduling, and every
// served artifact round-trips through the wire format, so any batch of any
// sweep is recomputable anywhere — concurrent requests can share one warm
// cache and still answer byte-for-byte identically.
package serve

import (
	"fmt"
	"hash/crc32"

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

// encodeContainer wraps a payload in the self-describing artifact header:
// magic, format version, kind, payload length, CRC-32 (IEEE) checksum.
func encodeContainer(kind uint8, payload []byte) []byte {
	buf := make([]byte, 0, len(artifactMagic)+2+1+8+4+len(payload))
	buf = append(buf, artifactMagic...)
	buf = wire.AppendU16(buf, FormatVersion)
	buf = wire.AppendU8(buf, kind)
	buf = wire.AppendU64(buf, uint64(len(payload)))
	buf = wire.AppendU32(buf, crc32.ChecksumIEEE(payload))
	return append(buf, payload...)
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
// shots, plus the deterministic wire accounting the server reports.
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
	var buf []byte
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
	for _, sub := range [][]byte{EncodeProgram(a.Prog), EncodeSchedule(a.Sched), EncodeGraph(a.Graph)} {
		buf = wire.AppendBytes(buf, sub)
	}
	return encodeContainer(kindBundle, buf)
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
	subs := make([][]byte, 3)
	for i := range subs {
		subs[i] = r.Bytes()
	}
	if err := r.Finish(); err != nil {
		return nil, fmt.Errorf("serve: decode bundle: %w", err)
	}
	if a.Prog, err = DecodeProgram(subs[0]); err != nil {
		return nil, fmt.Errorf("serve: bundle program: %w", err)
	}
	if a.Sched, err = DecodeSchedule(subs[1], a.Prog); err != nil {
		return nil, fmt.Errorf("serve: bundle schedule: %w", err)
	}
	if a.Graph, err = DecodeGraph(subs[2]); err != nil {
		return nil, fmt.Errorf("serve: bundle graph: %w", err)
	}
	// Raw estimates compile the outcome's effect table from its record
	// ids, so every id must name one of the program's records; decoded
	// estimates index the graph's effect table by the schedule's fault
	// sites, so the graph must have been compiled against it.
	if err := a.Outcome.CheckRecords(a.Prog.NumRecords()); err != nil {
		return nil, fmt.Errorf("serve: bundle outcome: %w", err)
	}
	if err := a.Graph.CheckSchedule(a.Sched); err != nil {
		return nil, fmt.Errorf("serve: bundle graph: %w", err)
	}
	a.ProgBytes, a.SchedBytes, a.GraphBytes = len(subs[0]), len(subs[1]), len(subs[2])
	a.BundleBytes = len(data)
	a.BundleCRC = crc32.ChecksumIEEE(payload)
	return a, nil
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
// compiled to a union-find decoding graph — then round-trips the result
// through the wire format, so every served artifact is a decoded one and
// serialization is exercised on the production path, not only in tests.
func CompileArtifact(k Key) (*Artifact, error) {
	spec, err := k.Spec()
	if err != nil {
		return nil, err
	}
	c, err := experiment.Compile(spec, true, nil)
	if err != nil {
		return nil, err
	}
	a := &Artifact{Key: k, Prog: c.Prog, Sched: c.Sched, Graph: c.Graph,
		Outcome: c.Outcome, Reference: c.Reference}
	decoded, err := DecodeBundle(EncodeBundle(a))
	if err != nil {
		return nil, fmt.Errorf("serve: artifact round-trip failed: %w", err)
	}
	decoded.Distance = decoded.Graph.Distance()
	return decoded, nil
}
