package cpuid

import (
	"runtime"
	"testing"
)

// TestDrawKernelName ties the kernel name to the probe and checks that only
// amd64 hosts can report AVX-512.
func TestDrawKernelName(t *testing.T) {
	want := "portable"
	if AVX512 {
		want = "avx512"
	}
	if got := DrawKernel(); got != want {
		t.Fatalf("DrawKernel() = %q with AVX512 = %v, want %q", got, AVX512, want)
	}
	if AVX512 && runtime.GOARCH != "amd64" {
		t.Fatalf("AVX512 set on %s", runtime.GOARCH)
	}
	t.Logf("draw kernel on this host: %s", DrawKernel())
}
