package cpuid

// cpuid executes CPUID with EAX = leaf and ECX = sub (cpuid_amd64.s).
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbv returns XCR0, the OS-enabled state components (cpuid_amd64.s).
// Call it only when CPUID reports OSXSAVE.
func xgetbv() (eax, edx uint32)

func init() { AVX512 = probeAVX512() }

// probeAVX512 checks CPUID leaf 7 for AVX-512F and AVX-512DQ, and XCR0 for
// the state the OS saves: SSE and AVX (bits 1, 2), the opmask registers and
// both halves of the ZMM file (bits 5–7). Without the OS bits the
// instructions fault even on a CPU that has them.
func probeAVX512() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	const osxsave = 1 << 27
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsave == 0 {
		return false
	}
	const zmmState = 1<<1 | 1<<2 | 1<<5 | 1<<6 | 1<<7
	if xcr0, _ := xgetbv(); xcr0&zmmState != zmmState {
		return false
	}
	const avx512f, avx512dq = 1 << 16, 1 << 17
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&avx512f != 0 && ebx&avx512dq != 0
}
