package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/navarchos/pdm"
	"github.com/navarchos/pdm/internal/obs"
	"github.com/navarchos/pdm/internal/wire"
)

// techniques are the paper's detectors, reported on every workload
// (zero where a workload never builds one).
var techniques = []string{"closest-pair", "grand", "tranad", "xgboost"}

// processCPU is the CPU time this process has used, user plus system.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runtimeSample reads the Go runtime's CPU classes and allocation
// total.
type runtimeSample struct {
	gcCPU, userCPU, scavengeCPU float64
	allocBytes                  uint64
}

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/user:cpu-seconds"},
		{Name: "/cpu/classes/scavenge/total:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	metrics.Read(s)
	var r runtimeSample
	if s[0].Value.Kind() == metrics.KindFloat64 {
		r.gcCPU = s[0].Value.Float64()
		r.userCPU = s[1].Value.Float64()
		r.scavengeCPU = s[2].Value.Float64()
	}
	if s[3].Value.Kind() == metrics.KindUint64 {
		r.allocBytes = s[3].Value.Uint64()
	}
	return r
}

// usage is what a traced window cost the process.
type usage struct {
	wall, cpu time.Duration
	// gcFrac is GC's share of the runtime's busy CPU (GC, user code
	// and scavenging), from runtime/metrics.
	gcFrac     float64
	allocBytes uint64
}

type meter struct {
	t   time.Time
	cpu time.Duration
	rt  runtimeSample
}

func startMeter() meter {
	runtime.GC()
	return meter{time.Now(), processCPU(), readRuntime()}
}

func (m meter) stop() usage {
	wall := time.Since(m.t)
	cpu := processCPU() - m.cpu
	rt := readRuntime()
	u := usage{wall: wall, cpu: cpu, allocBytes: rt.allocBytes - m.rt.allocBytes}
	gc := rt.gcCPU - m.rt.gcCPU
	if busy := gc + (rt.userCPU - m.rt.userCPU) + (rt.scavengeCPU - m.rt.scavengeCPU); busy > 0 {
		u.gcFrac = gc / busy
	}
	return u
}

func (u *usage) add(o usage) {
	// gcFrac is combined weighted by CPU time.
	if c := u.cpu + o.cpu; c > 0 {
		u.gcFrac = (u.gcFrac*float64(u.cpu) + o.gcFrac*float64(o.cpu)) / float64(c)
	}
	u.wall += o.wall
	u.cpu += o.cpu
	u.allocBytes += o.allocBytes
}

// producerSpans are the spans measured on the load goroutines of an
// in-process serve pass. Admission is wall time: it includes blocking
// on a full shard queue.
type producerSpans struct{ decode, admit span }

// inProcessPass drives a serve workload's frames in-process through
// the serve data path — wire.Decoder into Engine.IngestBatchCtx, one
// goroutine per connection, a Flush after every perFlush frames as the
// server does after each request — under the serve pipeline
// configuration. serve-live's warm-up streams go first, closed-loop
// and unmeasured. With l non-nil every component is wrapped, and the
// wrappers and producer spans record the measured phase only.
func inProcessPass(o *options, in *serveInput, l *layers, perFlush int) (usage, producerSpans, time.Duration, []alarmKey, error) {
	var ps producerSpans
	journal := pdm.NewAlarmJournal(256)
	jf, err := os.Create(filepath.Join(o.workdir, "journal-inprocess.jsonl"))
	if err != nil {
		return usage{}, ps, 0, nil, err
	}
	defer os.Remove(jf.Name())
	defer jf.Close()
	if l != nil {
		journal.SetSink(l.sink(jf))
	} else {
		journal.SetSink(jf)
	}
	observer := pdm.NewObserver(pdm.NewMetricsRegistry(), pdm.ObserverConfig{Journal: journal})
	eng, err := pdm.NewFleetEngine(pdm.FleetEngineConfig{
		NewConfig: servePipeline(observer, l),
		Shards:    o.nproc,
		Observer:  observer,
	})
	if err != nil {
		return usage{}, ps, 0, nil, err
	}
	var keys []alarmKey
	alarmsDone := make(chan struct{})
	go func() {
		defer close(alarmsDone)
		for a := range eng.Alarms() {
			keys = append(keys, keyOf(a))
		}
	}()
	var batchSeq atomic.Uint64
	// drive sends the first sent[c] frames of each stream (all when sent
	// is nil), timing decode and admission when timed.
	drive := func(streams []connStream, sent []int, perFlush int, timed bool) error {
		spans := make([]producerSpans, len(streams))
		errs := make([]error, len(streams))
		var wg sync.WaitGroup
		for c := range streams {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				s := &streams[c]
				frames := s.frames
				if sent != nil {
					frames = frames[:sent[c]]
				}
				sp := &spans[c]
				var dec wire.Decoder
				var b wire.Batch
				for _, group := range posts(frames, perFlush) {
					for _, fr := range group {
						b.Reset()
						t := time.Now()
						if _, err := dec.DecodeInto(s.buf[fr.off:fr.end], &b); err != nil {
							errs[c] = err
							return
						}
						bc := &obs.BatchCtx{BatchID: batchSeq.Add(1), TraceID: b.TraceID, Arrival: t}
						if !timed {
							if err := eng.IngestBatchCtx(b.Records, b.Events, bc); err != nil {
								errs[c] = err
								return
							}
							continue
						}
						sp.decode.add(t)
						ta := time.Now()
						err := eng.IngestBatchCtx(b.Records, b.Events, bc)
						sp.admit.add(ta)
						if err != nil {
							errs[c] = err
							return
						}
					}
					ta := time.Now()
					eng.Flush()
					if timed {
						sp.admit.ns += int64(time.Since(ta))
					}
				}
			}(c)
		}
		wg.Wait()
		for c := range streams {
			if errs[c] != nil {
				return errs[c]
			}
			ps.decode.merge(spans[c].decode)
			ps.admit.merge(spans[c].admit)
		}
		return nil
	}
	fail := func(err error) (usage, producerSpans, time.Duration, []alarmKey, error) {
		eng.Close()
		<-alarmsDone
		return usage{}, ps, 0, nil, err
	}
	if in.warm != nil {
		if err := drive(in.warm, nil, bulkFramesPerPost, false); err != nil {
			return fail(err)
		}
		// Let the engine finish the warm-up before measuring; the
		// consistent snapshot parks every shard, so the wrappers'
		// counters are quiet when recording starts.
		for eng.StatsConsistent().RecordsIn < uint64(in.warmRecords) {
			time.Sleep(time.Millisecond)
		}
	}
	if l != nil {
		l.on.Store(true)
	}
	m := startMeter()
	if err := drive(in.streams, in.sent, perFlush, l != nil); err != nil {
		return fail(err)
	}
	drainStart := time.Now()
	cerr := eng.Close()
	<-alarmsDone
	drain := time.Since(drainStart)
	u := m.stop()
	if l != nil {
		l.on.Store(false)
	}
	if cerr != nil {
		return u, ps, drain, nil, cerr
	}
	if jt := journal.Total(); jt != uint64(len(keys)) {
		return u, ps, drain, nil, checkErrorf("in-process journal holds %d alarms, engine raised %d", jt, len(keys))
	}
	sortKeys(keys)
	return u, ps, drain, keys, nil
}

// runServeTraced is the traced run of a serve workload: untraced and
// traced in-process passes alternate until the run's time is up. The
// traced alarms must be bit-identical to the replay reference, like
// the untraced ones.
func runServeTraced(o *options, rep *report, in *serveInput, want []alarmKey, perFlush int) error {
	l := newLayers(false)
	var plain, traced, drains []float64
	var u usage
	var ps producerSpans
	start := time.Now()
	for i := 0; i < 2 || time.Since(start) < o.seconds; i++ {
		var pl *layers
		what := "untraced in-process pass vs replay"
		if i%2 == 1 {
			pl, what = l, "traced in-process pass vs replay"
		}
		pu, pps, drain, got, err := inProcessPass(o, in, pl, perFlush)
		rep.attempted++
		if err != nil {
			return err
		}
		if err := compareAlarms(what, got, want); err != nil {
			return err
		}
		if pl == nil {
			plain = append(plain, pu.wall.Seconds())
			continue
		}
		traced = append(traced, pu.wall.Seconds())
		u.add(pu)
		ps.decode.merge(pps.decode)
		ps.admit.merge(pps.admit)
		drains = append(drains, float64(drain.Nanoseconds())/1e6)
	}
	fmt.Printf("%s traced: %d untraced and %d traced passes, alarms identical to replay\n", o.workload, len(plain), len(traced))
	lt := l.totals()
	lr := newLayerReport(rep, float64(in.records*len(traced)))
	lr.perRec("wire.decode_ns_per_rec", ps.decode)
	// Admission time includes blocking on full queues, so it stays out
	// of the CPU split; its CPU share lands in the unattributed
	// remainder with queueing, handler lookup, deliver and fan-in.
	rep.set("fleet.admit_ns_per_rec", ps.admit.total(lr.clock)/lr.recs, "ns/rec", int(ps.admit.calls))
	rep.set("fleet.drain_ms", median(drains), "ms", len(drains))
	lr.perRec("core.filter_ns_per_rec", lt.filter)
	rep.set("core.filter_keep_ratio", ratio(lt.kept.calls, lt.filter.calls), "ratio", int(lt.filter.calls))
	lr.perRec("transform.collect_ns_per_rec", lt.collect)
	lr.perCall("transform.emit_ns_per_sample", lt.emit, "ns/sample", 1)
	lr.detectors(lt, len(traced))
	lr.perCall("thresholds.fit_us", lt.thrFit, "us", 1e3)
	lr.perCall("thresholds.violations_ns", lt.thrViolations, "ns", 1)
	lr.perCall("obs.journal_ns_per_alarm", lt.journal, "ns/alarm", 1)
	rep.set("eval.other_s", 0, "s", 0)
	lr.runtime(u, plain, traced)
	return nil
}

// layerReport turns span totals into per-layer metrics and keeps the
// sum of attributed time the unattributed remainder is taken from.
type layerReport struct {
	rep   *report
	clock float64 // ns a timed interval adds by itself
	recs  float64 // input records over every traced pass
	spent float64 // ns attributed to a layer so far
}

func newLayerReport(rep *report, recs float64) *layerReport {
	clock := clockOverhead()
	fmt.Printf("trace: per-record calls timed 1 in %d; %.0f ns clock cost subtracted per timed call\n", sampleEvery, clock)
	return &layerReport{rep: rep, clock: clock, recs: recs}
}

// perRec reports a layer's time per input record.
func (r *layerReport) perRec(name string, s span) {
	t := s.total(r.clock)
	r.spent += t
	r.rep.set(name, t/r.recs, "ns/rec", int(s.calls))
}

// perCall reports a layer's mean time per call, in ns divided by
// scale.
func (r *layerReport) perCall(name string, s span, unit string, scale float64) {
	t := s.total(r.clock)
	r.spent += t
	v := 0.0
	if s.calls > 0 {
		v = t / float64(s.calls) / scale
	}
	r.rep.set(name, v, unit, int(s.calls))
}

// zero reports a layer the workload bypasses.
func (r *layerReport) zero(name, unit string) { r.rep.set(name, 0, unit, 0) }

// detectors reports each technique's mean fit and score times and its
// fits and scores per pass.
func (r *layerReport) detectors(lt totals, passes int) {
	for _, name := range techniques {
		d := lt.detectors[name]
		if d == nil {
			d = &detSpans{name: name}
		}
		r.perCall("detector."+name+".fit_us", d.fit, "us", 1e3)
		r.perCall("detector."+name+".score_ns", d.score, "ns", 1)
		r.rep.set("detector."+name+".fits", float64(d.fit.calls)/float64(passes), "count", passes)
		r.rep.set("detector."+name+".scores", float64(d.score.calls)/float64(passes), "count", passes)
	}
	for name := range lt.detectors {
		if !slices.Contains(techniques, name) {
			fmt.Printf("note: unreported detector %q\n", name)
		}
	}
}

// unattributed is the process CPU no layer and no GC accounts for.
func (r *layerReport) unattributed(u usage) float64 {
	cpu := float64(u.cpu.Nanoseconds())
	return cpu - u.gcFrac*cpu - r.spent
}

// runtime reports the process-wide metrics: GC, allocation, the
// unattributed remainder that makes the per-record split add up to
// the process CPU per record, and the tracing overhead.
func (r *layerReport) runtime(u usage, plain, traced []float64) {
	n := len(traced)
	r.rep.set("engine.unattributed_ns_per_rec", r.unattributed(u)/r.recs, "ns/rec", n)
	r.rep.set("process.cpu_ns_per_rec", float64(u.cpu.Nanoseconds())/r.recs, "ns/rec", n)
	r.rep.set("gc.cpu_frac", u.gcFrac, "ratio", n)
	r.rep.set("gc.alloc_bytes_per_rec", float64(u.allocBytes)/r.recs, "B/rec", n)
	r.rep.set("trace.overhead_frac", median(traced)/median(plain)-1, "ratio", n+len(plain))
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
