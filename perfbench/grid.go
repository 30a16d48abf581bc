package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"github.com/navarchos/pdm/internal/detector"
	"github.com/navarchos/pdm/internal/eval"
	"github.com/navarchos/pdm/internal/fleetsim"
	"github.com/navarchos/pdm/internal/transform"
)

// gridDigestSeed1 is the digest of every cell of the grid at seed 1,
// recorded from the tree this benchmark was written against. Every
// later tree must reproduce it bit for bit.
const gridDigestSeed1 = "d0ab7a5630998fa0122e20ccfc0ad39081eff704a686371035ef791338f48cbd"

// gridFleets is how many fleets an untraced grid run evaluates in
// turn, call k the fleet k mod gridFleets. A call's cost depends on the
// fleet it evaluates (5.8 s to 7.0 s over ten seeds on a 2-vCPU host),
// so a run on one fleet would report that fleet's cost rather than the
// workload's.
const gridFleets = 4

// gridFleetSeed is the generator seed of a run's fleet k; fleet 0 uses
// the run's own seed.
func gridFleetSeed(seed int64, k int) int64 { return seed + int64(k)*1_000_003 }

// gridSpec is the paper's grid over a fleet: the four techniques, the
// four transforms, both prediction horizons and both settings, with
// Parallelism pinned to the CPU count.
func gridSpec(f *fleetsim.Fleet, nproc int) eval.GridSpec {
	return eval.GridSpec{
		Records: f.Records,
		Events:  f.Events,
		Settings: map[string][]string{
			"setting26": f.EventVehicleIDs(),
			"setting40": f.AllVehicleIDs(),
		},
		Techniques:  eval.PaperTechniques(),
		Transforms:  transform.PaperKinds(),
		Parallelism: nproc,
	}
}

// cellDigest hashes every cell's coordinates and metrics, floats by
// bit pattern, in a fixed order.
func cellDigest(res *eval.GridResult) string {
	lines := make([]string, len(res.Cells))
	for i, c := range res.Cells {
		m := c.Best
		lines[i] = fmt.Sprintf("%s|%s|%d|%s|%d|%d|%d|%x|%x|%x|%x|%x",
			c.Technique, c.Transform, c.PH, c.Setting, m.TP, m.FP, m.TotalFailures,
			math.Float64bits(m.Precision), math.Float64bits(m.Recall),
			math.Float64bits(m.F1), math.Float64bits(m.F05), math.Float64bits(c.BestParam))
	}
	sort.Strings(lines)
	h := sha256.New()
	for _, l := range lines {
		fmt.Fprintln(h, l)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// gridCall is one timed RunGrid call.
type gridCall struct {
	wall, setup time.Duration
	records     int
	// jobMs is each technique × transform job's duration: its detect
	// stage and threshold sweep.
	jobMs  []float64
	rssMB  float64
	digest string
	cells  int
	use    usage
	// sweep is the call's time outside wrapped detectors between jobs
	// (traced calls only).
	sweep time.Duration
}

// runGridOnce times one RunGrid call from outside. The NewDetector
// hook stamps the first detector of each job: stage 2 builds one
// detector per vehicle per job and finishes a job before starting the
// next, so call k·vehicles opens job k. With l non-nil the hooks also
// wrap every detector and transformer.
func runGridOnce(spec eval.GridSpec, vehicles int, l *layers) (*gridCall, error) {
	var mu sync.Mutex
	var calls int
	var opens []time.Time
	spec.NewDetector = func(t eval.Technique, names []string, seed int64) (detector.Detector, error) {
		now := time.Now()
		mu.Lock()
		if calls%vehicles == 0 {
			opens = append(opens, now)
		}
		calls++
		mu.Unlock()
		d, err := eval.NewDetector(t, names, seed)
		if err != nil || l == nil {
			return d, err
		}
		return l.detector(d), nil
	}
	if l != nil {
		spec.NewTransformer = func(kind transform.Kind, window int) (transform.Transformer, error) {
			t, err := transform.New(kind, window)
			if err != nil {
				return nil, err
			}
			return l.transformer(t), nil
		}
	}
	var first int
	if l != nil {
		first = len(l.detectors)
	}
	resetPeakRSS()
	m := startMeter()
	res, err := eval.RunGrid(spec)
	end := time.Now()
	use := m.stop()
	if err != nil {
		return nil, err
	}
	jobs := len(spec.Techniques) * len(spec.Transforms)
	if len(opens) != jobs || calls != jobs*vehicles {
		return nil, fmt.Errorf("grid: %d detector builds in %d jobs, want %d×%d", calls, len(opens), jobs, vehicles)
	}
	g := &gridCall{wall: end.Sub(m.t), setup: opens[0].Sub(m.t), records: len(spec.Records), digest: cellDigest(res), cells: len(res.Cells), use: use}
	for k, open := range opens {
		ready := end
		if k+1 < len(opens) {
			ready = opens[k+1]
		}
		g.jobMs = append(g.jobMs, float64(ready.Sub(open).Nanoseconds())/1e6)
		if l != nil {
			// Job k's detectors were registered k·vehicles onward; its
			// sweep runs from the last detector call to the next job.
			var detected time.Time
			for _, d := range l.detectors[first+k*vehicles : first+(k+1)*vehicles] {
				if d.last.After(detected) {
					detected = d.last
				}
			}
			g.sweep += ready.Sub(detected)
		}
	}
	g.rssMB, err = vmHWM("/proc/self/status")
	return g, err
}

// resetPeakRSS restarts the process's VmHWM at its current RSS, so a
// call's peak excludes fleet generation. Kernels without the reset
// leave the peak cumulative.
func resetPeakRSS() {
	os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

func runGrid(o *options, rep *report) error {
	n := gridFleets
	if o.trace {
		n = 1 // traced and untraced calls alternate on one fleet
	}
	var sizes inputSizes
	for k := 0; k < n; k++ {
		f := smallFleet(gridFleetSeed(o.seed, k))
		sizes.Vehicles += len(f.Vehicles)
		sizes.Records += len(f.Records)
		sizes.Events += len(f.Events)
	}
	printHeader(o, sizes)
	// The traced run alternates untraced and wrapped calls; every call
	// on a fleet, wrapped or not, must produce the same cells.
	l := newLayers(true)
	var plain, traced []*gridCall
	digests := make([]string, n) // each fleet's cells, from its first call
	start := time.Now()
	// At least n+1 untraced calls, so every run evaluates each fleet
	// and checks one of them twice.
	for i := 0; len(plain) <= n || (o.trace && len(traced) == 0) || time.Since(start) < o.seconds; i++ {
		k := i % n
		var cl *layers
		if o.trace && i%2 == 1 {
			cl = l
		}
		// Each call generates its fleet afresh, so the run holds one
		// fleet at a time, and starts from a collected heap, so no
		// call pays for the last one's garbage.
		f := smallFleet(gridFleetSeed(o.seed, k))
		runtime.GC()
		g, err := runGridOnce(gridSpec(f, o.nproc), len(f.Vehicles), cl)
		rep.attempted++
		if err != nil {
			return err
		}
		if digests[k] == "" {
			digests[k] = g.digest
		} else if g.digest != digests[k] {
			return checkErrorf("grid call %d: cells digest %s, first call on fleet %d %s", i+1, g.digest, k, digests[k])
		}
		if cl == nil {
			plain = append(plain, g)
		} else {
			traced = append(traced, g)
		}
	}
	if o.seed == 1 && digests[0] != gridDigestSeed1 {
		return checkErrorf("grid cells digest %s at seed 1, recorded %s", digests[0], gridDigestSeed1)
	}
	fmt.Printf("grid: %d untraced and %d traced calls over %d fleets, %d cells, each fleet's digest the same on every call: %v\n",
		len(plain), len(traced), n, plain[0].cells, digests)
	if o.trace {
		reportGridLayers(rep, l, plain, traced, plain[0].records)
		return nil
	}
	// A grid request is one RunGrid call, the evaluation an analyst
	// asks for, and its alarms reach the analyst only when the call
	// returns: both latencies are the call's.
	var setup, wall, rss, rps, callMs, jobMs []float64
	for _, g := range plain {
		setup = append(setup, g.setup.Seconds())
		wall = append(wall, g.wall.Seconds())
		rss = append(rss, g.rssMB)
		rps = append(rps, float64(g.records)/g.wall.Seconds())
		callMs = append(callMs, float64(g.wall.Nanoseconds())/1e6)
		jobMs = append(jobMs, g.jobMs...)
	}
	rep.set("setup_s", median(setup), "s", len(setup))
	rep.set("peak_rss_mb", median(rss), "MiB", len(rss))
	rep.set("records_per_s", median(rps), "rec/s", len(rps))
	rep.set("wall_s", median(wall), "s", len(wall))
	setLatencies(rep, callMs, callMs)
	rep.info("job_p50_ms", quantile(jobMs, 0.50), "ms", len(jobMs))
	rep.info("job_p99_ms", quantile(jobMs, 0.99), "ms", len(jobMs))
	return nil
}

// reportGridLayers sets the grid's per-layer metrics. The grid builds
// its own filters and placeholder thresholders and never touches the
// wire or the admission path: those layers read 0. eval.other_s is the
// wall time of each call in which no job was inside a wrapped
// detector: the threshold sweeps and the orchestration between jobs.
func reportGridLayers(rep *report, l *layers, plain, traced []*gridCall, records int) {
	var u usage
	var plainWall, tracedWall, sweep []float64
	for _, g := range plain {
		plainWall = append(plainWall, g.wall.Seconds())
	}
	for _, g := range traced {
		tracedWall = append(tracedWall, g.wall.Seconds())
		sweep = append(sweep, g.sweep.Seconds())
		u.add(g.use)
	}
	lt := l.totals()
	n := len(traced)
	lr := newLayerReport(rep, float64(records*n))
	lr.zero("wire.decode_ns_per_rec", "ns/rec")
	lr.zero("fleet.admit_ns_per_rec", "ns/rec")
	lr.zero("fleet.drain_ms", "ms")
	lr.zero("core.filter_ns_per_rec", "ns/rec")
	lr.zero("core.filter_keep_ratio", "ratio")
	lr.perRec("transform.collect_ns_per_rec", lt.collect)
	lr.perCall("transform.emit_ns_per_sample", lt.emit, "ns/sample", 1)
	lr.detectors(lt, n)
	lr.zero("thresholds.fit_us", "us")
	lr.zero("thresholds.violations_ns", "ns")
	lr.zero("obs.journal_ns_per_alarm", "ns/alarm")
	rep.set("eval.other_s", median(sweep), "s", n)
	lr.runtime(u, plainWall, tracedWall)
}
