package mat

import "testing"

// forEachDispatch runs f once on the kernels the CPU selects and once
// with the AVX kernels switched off, so the pure Go fallbacks face the
// same bit-exactness oracle as the assembly.
func forEachDispatch(t *testing.T, f func(level string)) {
	t.Helper()
	f(SIMDMode())
	saved := hasAVX
	hasAVX = false
	defer func() { hasAVX = saved }()
	f("scalar")
}
