// Package cpuid probes the host CPU once, at init, for the instruction-set
// extensions the SIMD kernels need. It imports nothing from this module, so
// the kernels' packages and the run provenance (internal/telemetry) read
// the same answer.
package cpuid

// AVX512 reports whether the host runs AVX-512F and AVX-512DQ code: the CPU
// has both extensions and the OS saves the opmask and ZMM state on context
// switches. It is false on every architecture but amd64.
var AVX512 bool

// DrawKernel names the fault-draw kernel noise.Schedule.FiredBatch runs on
// this host: "avx512" (64 lanes in eight ZMM registers) or "portable" (four
// lanes at a time in Go). Both draw the same fault stream bit for bit; the
// name only says which code produced a run's throughput figures.
func DrawKernel() string {
	if AVX512 {
		return "avx512"
	}
	return "portable"
}
