package noise

// WilsonStdErr exposes the early-stopping criterion to the external tests.
var WilsonStdErr = wilsonStdErr

// RawTable returns the raw readout table the schedule keeps, or nil.
func RawTable(s *Schedule) *Effects {
	if t := s.raw.Load(); t != nil {
		return t.eff
	}
	return nil
}
