//go:build !amd64

package noise

// scanAVX512 exists only on amd64 (scan_amd64.s). cpuid.AVX512 is false
// elsewhere, so FiredBatch never calls this.
func scanAVX512([]uint64, int, *[64]uint64) (int, uint64) {
	panic("noise: the AVX-512 draw scan runs only on amd64")
}
