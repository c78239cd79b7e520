// Binary serialization of compiled decoding graphs: the export/import hook
// behind the compiled-artifact cache and wire format (internal/serve). The
// payload holds the detector structure, the edge list and the effect
// table (noise.AppendEffects); adjacency CSR, scratch prototypes and the telemetry set are
// derived state rebuilt by finish on decode, so a decoded graph decodes
// shots bit-identically to a freshly compiled one.
package decoder

import (
	"fmt"
	"math"

	"tiscc/internal/noise"
	"tiscc/internal/pauli"
	"tiscc/internal/wire"
)

// AppendGraph serializes g, appending to buf. The detector structure is
// embedded in full, so decoding needs no experiment object.
func AppendGraph(buf []byte, g *Graph) []byte {
	d := g.det
	buf = wire.AppendU32(buf, uint32(d.rounds))
	buf = wire.AppendU8(buf, uint8(d.basis))
	buf = wire.AppendBool(buf, d.ObsConst)
	buf = wire.AppendBool(buf, d.ObsRef)
	buf = wire.AppendU32(buf, uint32(len(d.Obs)))
	for _, id := range d.Obs {
		buf = wire.AppendI32(buf, id)
	}
	buf = wire.AppendU32(buf, uint32(len(d.Dets)))
	for i := range d.Dets {
		det := &d.Dets[i]
		buf = wire.AppendBool(buf, det.Ref)
		buf = wire.AppendI64(buf, int64(det.Face.I))
		buf = wire.AppendI64(buf, int64(det.Face.J))
		buf = wire.AppendU8(buf, uint8(det.Type))
		buf = wire.AppendI32(buf, int32(det.Round))
		buf = wire.AppendU32(buf, uint32(len(det.Recs)))
		for _, id := range det.Recs {
			buf = wire.AppendI32(buf, id)
		}
	}
	buf = wire.AppendU32(buf, uint32(g.undetectable))
	buf = wire.AppendU32(buf, uint32(g.undecomposed))
	buf = wire.AppendU32(buf, uint32(len(g.edges)))
	for i := range g.edges {
		e := &g.edges[i]
		buf = wire.AppendI32(buf, e.U)
		buf = wire.AppendI32(buf, e.V)
		buf = wire.AppendI32(buf, e.Len)
		buf = wire.AppendBool(buf, e.Obs)
		buf = wire.AppendF64(buf, e.P)
	}
	return noise.AppendEffects(buf, &g.eff)
}

// DecodeGraph deserializes a graph encoded by AppendGraph, validates its
// structural invariants (node ids within [0, boundary], positive growth
// lengths, well-formed detector records, an effect table within the
// detectors) and rebuilds the derived decoding state via finish. Hostile
// bytes produce an error, never a panic; CheckSchedule binds the decoded
// graph to a schedule before it decodes.
func DecodeGraph(data []byte) (*Graph, error) {
	r := wire.NewReader(data)
	d := &Detectors{}
	d.rounds = int(r.U32())
	d.basis = pauli.Kind(r.U8())
	d.ObsConst = r.Bool()
	d.ObsRef = r.Bool()
	nObs := r.Count(4)
	d.Obs = make([]int32, nObs)
	for i := range d.Obs {
		d.Obs[i] = r.I32()
	}
	nDets := r.Count(19) // fixed fields per detector, before its record list
	d.Dets = make([]Detector, nDets)
	for i := range d.Dets {
		det := &d.Dets[i]
		det.Ref = r.Bool()
		det.Face.I = int(r.I64())
		det.Face.J = int(r.I64())
		det.Type = pauli.Kind(r.U8())
		det.Round = int(r.I32())
		nRecs := r.Count(4)
		det.Recs = make([]int32, nRecs)
		for j := range det.Recs {
			det.Recs[j] = r.I32()
		}
		if r.Err() != nil {
			break
		}
	}
	g := &Graph{det: d, boundary: int32(nDets)}
	g.undetectable = int(r.U32())
	g.undecomposed = int(r.U32())
	nEdges := r.Count(21) // 3×int32 + bool + f64 per edge
	edges := make([]Edge, nEdges)
	for i := range edges {
		e := &edges[i]
		e.U = r.I32()
		e.V = r.I32()
		e.Len = r.I32()
		e.Obs = r.Bool()
		e.P = r.F64()
	}
	eff, err := noise.DecodeEffects(r, nDets)
	if err != nil {
		return nil, fmt.Errorf("decoder: decode graph: %w", err)
	}
	g.eff = *eff
	if err := r.Finish(); err != nil {
		return nil, fmt.Errorf("decoder: decode graph: %w", err)
	}
	if d.basis != pauli.X && d.basis != pauli.Z {
		return nil, fmt.Errorf("decoder: decode: basis %d is not X or Z", d.basis)
	}
	if d.rounds < 0 {
		return nil, fmt.Errorf("decoder: decode: negative round count %d", d.rounds)
	}
	for i := range d.Dets {
		det := &d.Dets[i]
		if det.Type > pauli.Y {
			return nil, fmt.Errorf("decoder: decode: detector %d has unknown stabilizer type %d", i, det.Type)
		}
		if len(det.Recs) == 0 {
			return nil, fmt.Errorf("decoder: decode: detector %d has no records", i)
		}
	}
	for i := range edges {
		e := &edges[i]
		if e.U < 0 || e.U > g.boundary || e.V < 0 || e.V > g.boundary {
			return nil, fmt.Errorf("decoder: decode: edge %d nodes (%d, %d) outside [0, %d]", i, e.U, e.V, g.boundary)
		}
		if e.Len < 2 || e.Len > maxEdgeLen {
			return nil, fmt.Errorf("decoder: decode: edge %d growth length %d outside [2, %d]", i, e.Len, maxEdgeLen)
		}
		if math.IsNaN(e.P) || e.P < 0 || e.P > 1 {
			return nil, fmt.Errorf("decoder: decode: edge %d probability %v outside [0, 1]", i, e.P)
		}
	}
	if nEdges == 0 {
		edges = nil // match CompileGraph's edgeless (ideal-model) shape
	}
	g.finish(edges)
	return g, nil
}
