// Binary serialization of compiled programs: the export/import hook behind
// the compiled-artifact cache and wire format (internal/serve). The payload
// is unversioned raw fields — serve wraps it in a versioned, checksummed
// container — but it is fully validated on decode, so corrupted or truncated
// bytes return an error instead of panicking in a shot loop later. Encoding
// is deterministic: the one map (finalAt) is emitted in sorted site order,
// so equal programs always serialize to equal bytes.
package orqcs

import (
	"fmt"
	"sort"

	"tiscc/internal/grid"
	"tiscc/internal/wire"
)

// AppendProgram serializes p, appending to buf.
func AppendProgram(buf []byte, p *Program) []byte {
	buf = wire.AppendU32(buf, uint32(p.n))
	buf = wire.AppendU32(buf, uint32(p.srcEvents))
	buf = wire.AppendU32(buf, uint32(p.fusedRemoved))
	buf = wire.AppendU32(buf, uint32(p.elimRemoved))
	buf = wire.AppendU32(buf, uint32(len(p.instrs)))
	for i := range p.instrs {
		in := &p.instrs[i]
		buf = wire.AppendI32(buf, in.Q1)
		buf = wire.AppendI32(buf, in.Q2)
		buf = wire.AppendI32(buf, in.Rec)
		buf = wire.AppendU8(buf, uint8(in.Op))
	}
	// gaps is parallel to instrs; no second count needed.
	for i := range p.gaps {
		g := &p.gaps[i]
		buf = wire.AppendI64(buf, g.Idle1)
		buf = wire.AppendI64(buf, g.Idle2)
		buf = wire.AppendI32(buf, g.Moves1)
		buf = wire.AppendI32(buf, g.Moves2)
	}
	buf = wire.AppendU32(buf, uint32(len(p.folded)))
	for _, f := range p.folded {
		buf = wire.AppendI32(buf, f.Slot)
		buf = wire.AppendI32(buf, f.Q)
	}
	sites := make([]grid.Site, 0, len(p.finalAt))
	for s := range p.finalAt {
		sites = append(sites, s)
	}
	sort.Slice(sites, func(i, j int) bool {
		if sites[i].R != sites[j].R {
			return sites[i].R < sites[j].R
		}
		return sites[i].C < sites[j].C
	})
	buf = wire.AppendU32(buf, uint32(len(sites)))
	for _, s := range sites {
		buf = wire.AppendI64(buf, int64(s.R))
		buf = wire.AppendI64(buf, int64(s.C))
		buf = wire.AppendU32(buf, uint32(p.finalAt[s]))
	}
	return buf
}

// DecodeProgram deserializes a program encoded by AppendProgram. Every
// field is validated (qubit and record indices in range, known opcodes), so
// a decoded program upholds the same invariants as a freshly compiled one
// and produces bit-identical shots; hostile bytes produce an error, never a
// panic. NumTGates is recomputed from the instruction stream rather than
// trusted from the wire.
func DecodeProgram(data []byte) (*Program, error) {
	r := wire.NewReader(data)
	p := &Program{}
	p.n = int(r.U32())
	p.srcEvents = int(r.U32())
	p.fusedRemoved = int(r.U32())
	p.elimRemoved = int(r.U32())
	nInstr := r.Count(13) // 3×int32 + opcode per instruction
	p.instrs = make([]Instr, nInstr)
	for i := range p.instrs {
		in := &p.instrs[i]
		in.Q1 = r.I32()
		in.Q2 = r.I32()
		in.Rec = r.I32()
		in.Op = OpCode(r.U8())
	}
	p.gaps = make([]Gap, nInstr)
	for i := range p.gaps {
		g := &p.gaps[i]
		g.Idle1 = r.I64()
		g.Idle2 = r.I64()
		g.Moves1 = r.I32()
		g.Moves2 = r.I32()
	}
	nFold := r.Count(8)
	p.folded = make([]FoldedPrep, nFold)
	for i := range p.folded {
		p.folded[i].Slot = r.I32()
		p.folded[i].Q = r.I32()
	}
	nSites := r.Count(20)
	p.finalAt = make(map[grid.Site]int, nSites)
	for i := 0; i < nSites; i++ {
		s := grid.Site{R: int(r.I64()), C: int(r.I64())}
		q := int(r.U32())
		if r.Err() != nil {
			break
		}
		if q < 0 || q >= p.n {
			return nil, fmt.Errorf("orqcs: decode: site %v maps to qubit %d outside [0, %d)", s, q, p.n)
		}
		if _, dup := p.finalAt[s]; dup {
			return nil, fmt.Errorf("orqcs: decode: duplicate site %v in final-occupancy map", s)
		}
		p.finalAt[s] = q
	}
	if err := r.Finish(); err != nil {
		return nil, fmt.Errorf("orqcs: decode program: %w", err)
	}
	if p.n < 0 {
		return nil, fmt.Errorf("orqcs: decode: negative qubit count %d", p.n)
	}
	nMeas := 0
	for i := range p.instrs {
		if p.instrs[i].Op == OpMeasureZ {
			nMeas++
		}
	}
	for i := range p.instrs {
		in := &p.instrs[i]
		if in.Op > OpZZ {
			return nil, fmt.Errorf("orqcs: decode: instruction %d has unknown opcode %d", i, in.Op)
		}
		if in.Q1 < 0 || int(in.Q1) >= p.n {
			return nil, fmt.Errorf("orqcs: decode: instruction %d operand Q1=%d outside [0, %d)", i, in.Q1, p.n)
		}
		if in.Op == OpZZ {
			if in.Q2 < 0 || int(in.Q2) >= p.n || in.Q2 == in.Q1 {
				return nil, fmt.Errorf("orqcs: decode: ZZ instruction %d has invalid Q2=%d", i, in.Q2)
			}
		} else if in.Q2 != -1 {
			return nil, fmt.Errorf("orqcs: decode: one-qubit instruction %d carries Q2=%d", i, in.Q2)
		}
		if in.Op == OpMeasureZ {
			if in.Rec < 0 || int(in.Rec) >= nMeas {
				return nil, fmt.Errorf("orqcs: decode: measurement %d record index %d outside [0, %d)", i, in.Rec, nMeas)
			}
		} else if in.Rec != -1 {
			return nil, fmt.Errorf("orqcs: decode: non-measurement %d carries record index %d", i, in.Rec)
		}
		if in.Op == OpT || in.Op == OpTdg {
			p.numT++
		}
	}
	for i, f := range p.folded {
		if f.Slot < 0 || int(f.Slot) > len(p.instrs) {
			return nil, fmt.Errorf("orqcs: decode: folded prep %d slot %d outside [0, %d]", i, f.Slot, len(p.instrs))
		}
		if f.Q < 0 || int(f.Q) >= p.n {
			return nil, fmt.Errorf("orqcs: decode: folded prep %d qubit %d outside [0, %d)", i, f.Q, p.n)
		}
		if i > 0 && f.Slot < p.folded[i-1].Slot {
			return nil, fmt.Errorf("orqcs: decode: folded prep %d slot %d precedes slot %d of the one before it", i, f.Slot, p.folded[i-1].Slot)
		}
	}
	return p, nil
}
