// Binary serialization of compiled fault schedules: the export/import hook
// behind the compiled-artifact cache and wire format (internal/serve). The
// payload holds the model and the flat fault CSR; the draw kernel's reject
// bounds are derived state and are rebuilt on decode (a P = 0 site, which
// Compile never emits but the format admits, gets a bound that never fires),
// so a decoded schedule samples the exact draw sequence of a freshly
// compiled one.
package noise

import (
	"fmt"
	"math"

	"tiscc/internal/orqcs"
	"tiscc/internal/wire"
)

// AppendSchedule serializes s, appending to buf. The program the schedule
// was compiled against is not included — it has its own serializer
// (orqcs.AppendProgram) and DecodeSchedule takes it as an argument, which
// keeps one shared program out of every schedule blob.
func AppendSchedule(buf []byte, s *Schedule) []byte {
	buf = wire.AppendString(buf, s.model.Name)
	buf = wire.AppendF64(buf, s.model.P1)
	buf = wire.AppendF64(buf, s.model.P1Z)
	buf = wire.AppendF64(buf, s.model.P2)
	buf = wire.AppendF64(buf, s.model.PPrep)
	buf = wire.AppendF64(buf, s.model.PMeas)
	buf = wire.AppendF64(buf, s.model.PMove)
	buf = wire.AppendF64(buf, s.model.T2)
	buf = wire.AppendU32(buf, uint32(len(s.faults)))
	for i := range s.faults {
		f := &s.faults[i]
		buf = wire.AppendF64(buf, f.P)
		buf = wire.AppendI32(buf, f.Q1)
		buf = wire.AppendI32(buf, f.Q2)
		buf = wire.AppendU8(buf, uint8(f.Kind))
		buf = wire.AppendU8(buf, uint8(s.class[i]))
	}
	buf = wire.AppendU32(buf, uint32(len(s.start)))
	for _, v := range s.start {
		buf = wire.AppendI32(buf, v)
	}
	return buf
}

// DecodeSchedule deserializes a schedule encoded by AppendSchedule and binds
// it to prog, which must be the same program (typically itself decoded from
// the same artifact bundle) the schedule was compiled against. The CSR
// structure is validated — slot offsets monotone and spanning the fault
// table, one slot per instruction plus the trailing slot, operands in
// range — so corrupted bytes fail here instead of panicking mid-shot.
func DecodeSchedule(data []byte, prog *orqcs.Program) (*Schedule, error) {
	if prog == nil {
		return nil, fmt.Errorf("noise: decode schedule: nil program")
	}
	r := wire.NewReader(data)
	s := &Schedule{prog: prog}
	s.model.Name = r.String()
	s.model.P1 = r.F64()
	s.model.P1Z = r.F64()
	s.model.P2 = r.F64()
	s.model.PPrep = r.F64()
	s.model.PMeas = r.F64()
	s.model.PMove = r.F64()
	s.model.T2 = r.F64()
	nFaults := r.Count(18) // f64 + 2×int32 + kind + class per fault
	s.faults = make([]Fault, nFaults)
	s.class = make([]GateClass, nFaults)
	for i := range s.faults {
		f := &s.faults[i]
		f.P = r.F64()
		f.Q1 = r.I32()
		f.Q2 = r.I32()
		f.Kind = FaultKind(r.U8())
		s.class[i] = GateClass(r.U8())
	}
	nStart := r.Count(4)
	s.start = make([]int32, nStart)
	for i := range s.start {
		s.start[i] = r.I32()
	}
	if err := r.Finish(); err != nil {
		return nil, fmt.Errorf("noise: decode schedule: %w", err)
	}
	if err := s.model.Validate(); err != nil {
		return nil, fmt.Errorf("noise: decode schedule: %w", err)
	}
	n := prog.NumQubits()
	for i := range s.faults {
		f := &s.faults[i]
		if math.IsNaN(f.P) || f.P < 0 || f.P > 1 {
			return nil, fmt.Errorf("noise: decode: fault %d probability %v outside [0, 1]", i, f.P)
		}
		if f.Kind >= NumFaultKinds {
			return nil, fmt.Errorf("noise: decode: fault %d has unknown kind %d", i, f.Kind)
		}
		if s.class[i] >= NumGateClasses {
			return nil, fmt.Errorf("noise: decode: fault %d has unknown gate class %d", i, s.class[i])
		}
		if f.Q1 < 0 || int(f.Q1) >= n {
			return nil, fmt.Errorf("noise: decode: fault %d operand Q1=%d outside [0, %d)", i, f.Q1, n)
		}
		if f.Kind == FaultDepol2 && (f.Q2 < 0 || int(f.Q2) >= n) {
			return nil, fmt.Errorf("noise: decode: two-qubit fault %d operand Q2=%d outside [0, %d)", i, f.Q2, n)
		}
	}
	if len(s.start) != prog.NumInstrs()+2 {
		return nil, fmt.Errorf("noise: decode: %d slot offsets for a %d-instruction program (want %d)",
			len(s.start), prog.NumInstrs(), prog.NumInstrs()+2)
	}
	if s.start[0] != 0 || int(s.start[len(s.start)-1]) != len(s.faults) {
		return nil, fmt.Errorf("noise: decode: slot offsets span [%d, %d], want [0, %d]",
			s.start[0], s.start[len(s.start)-1], len(s.faults))
	}
	for i := 1; i < len(s.start); i++ {
		if s.start[i] < s.start[i-1] {
			return nil, fmt.Errorf("noise: decode: slot offset %d decreases (%d → %d)", i, s.start[i-1], s.start[i])
		}
	}
	s.reject = rejectBounds(s.faults)
	return s, nil
}
