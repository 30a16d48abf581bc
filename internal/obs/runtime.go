package obs

import "runtime/metrics"

// RegisterRuntimeMetrics bridges the Go runtime's own health into reg
// as collection-time gauges read from runtime/metrics: the garbage
// collector's share of the process's busy CPU, the live heap and the
// goroutine count. They cost nothing between scrapes. NewDebugMux
// registers them on its registry, so every /metrics endpoint carries
// them.
func RegisterRuntimeMetrics(reg *Registry) {
	reg.GaugeFunc("pdm_go_gc_cpu_fraction",
		"Share of the process's busy CPU time (GC, user code, scavenging) spent in the garbage collector since start, as the runtime estimates it.",
		func() float64 {
			s := readRuntime("/cpu/classes/gc/total:cpu-seconds", "/cpu/classes/user:cpu-seconds",
				"/cpu/classes/scavenge/total:cpu-seconds")
			gc := sampleFloat(s[0])
			if busy := gc + sampleFloat(s[1]) + sampleFloat(s[2]); busy > 0 {
				return gc / busy
			}
			return 0
		})
	reg.GaugeFunc("pdm_go_heap_live_bytes",
		"Heap bytes marked live by the last completed GC cycle.",
		func() float64 { return sampleFloat(readRuntime("/gc/heap/live:bytes")[0]) })
	reg.GaugeFunc("pdm_go_goroutines",
		"Live goroutines.",
		func() float64 { return sampleFloat(readRuntime("/sched/goroutines:goroutines")[0]) })
}

// readRuntime reads the named runtime/metrics samples.
func readRuntime(names ...string) []metrics.Sample {
	s := make([]metrics.Sample, len(names))
	for i, n := range names {
		s[i].Name = n
	}
	metrics.Read(s)
	return s
}

// sampleFloat converts a numeric sample; unsupported metrics read 0.
func sampleFloat(s metrics.Sample) float64 {
	switch s.Value.Kind() {
	case metrics.KindUint64:
		return float64(s.Value.Uint64())
	case metrics.KindFloat64:
		return s.Value.Float64()
	}
	return 0
}
