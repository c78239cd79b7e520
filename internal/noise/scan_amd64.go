package noise

// scanAVX512 is FiredBatch's 64-lane scan (scan_amd64.s). x holds the 64
// stream states at site k. It returns the first site from k on at which
// some lane's pre-finalizer mix is within the site's reject bound, with the
// mask of those lanes (len(reject) and 0 when no site is), and leaves x
// holding the states one site past it. Call it only where cpuid.AVX512
// holds.
//
//go:noescape
func scanAVX512(reject []uint64, k int, x *[64]uint64) (site int, lanes uint64)
