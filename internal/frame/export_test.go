package frame

import "tiscc/internal/orqcs"

// Trace exposes the sampler's reference trace to the external tests.
func (s *Sim) Trace() *orqcs.Reference { return s.ref }
