//go:build !amd64

package mat

import "testing"

// forEachDispatch runs f on the pure Go kernels, the only dispatch
// level off amd64.
func forEachDispatch(t *testing.T, f func(level string)) {
	t.Helper()
	f("scalar")
}
