package obs

import (
	"runtime"
	"strconv"
	"strings"
	"testing"
)

func TestRuntimeMetrics(t *testing.T) {
	reg := NewRegistry()
	RegisterRuntimeMetrics(reg)
	runtime.GC()
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for _, tc := range []struct {
		name     string
		min, max float64
	}{
		{"pdm_go_gc_cpu_fraction", 0, 1},
		{"pdm_go_heap_live_bytes", 1, 1 << 40},
		{"pdm_go_goroutines", 1, 1 << 20},
	} {
		v, ok := gaugeValue(text, tc.name)
		if !ok {
			t.Fatalf("%s missing from the exposition:\n%s", tc.name, text)
		}
		if v < tc.min || v > tc.max {
			t.Errorf("%s = %v, want within [%v, %v]", tc.name, v, tc.min, tc.max)
		}
	}

	// Every /metrics endpoint carries them.
	served := NewRegistry()
	NewDebugMux(DebugConfig{Registry: served})
	sb.Reset()
	if err := served.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if _, ok := gaugeValue(sb.String(), "pdm_go_goroutines"); !ok {
		t.Fatal("NewDebugMux did not register the runtime gauges")
	}
}

// gaugeValue finds an unlabelled sample line "name value".
func gaugeValue(text, name string) (float64, bool) {
	for _, line := range strings.Split(text, "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			f, err := strconv.ParseFloat(v, 64)
			return f, err == nil
		}
	}
	return 0, false
}
