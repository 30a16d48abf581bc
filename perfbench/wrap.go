package main

import (
	"io"
	"sync"
	"sync/atomic"
	"time"

	"github.com/navarchos/pdm/internal/detector"
	"github.com/navarchos/pdm/internal/thresholds"
	"github.com/navarchos/pdm/internal/timeseries"
	"github.com/navarchos/pdm/internal/transform"
)

// This file holds the traced run's instrumentation: wrappers around
// each pipeline component that time calls into it from outside. A
// component is owned by one goroutine at a time (one vehicle on one
// shard, or one grid worker), so each wrapper keeps plain counters of
// its own; layers keeps every wrapper's counters and sums them once
// the run has ended.
//
// A wrapper must expose exactly the optional interfaces of what it
// wraps — detector.IntoScorer, detector.SelfCalibrator,
// transform.IntoEmitter and every Snapshotter — because the pipeline
// probes for them and takes a different path when one is missing.
// Go cannot add methods to a type at run time, so each combination of
// optional interfaces has its own composite type.

// sampleEvery is how often the per-record and per-sample calls
// (filter, collect, emit, score, violations) are timed. Every call is
// counted; a clock read costs about as much as a filter call, so
// timing each one would mostly measure the clock.
const sampleEvery = 16

// span accumulates the calls into one layer: how many, how many of
// them were timed, and the timed calls' total duration. It records
// only while on is unset or true, so a warm-up phase can run through
// the same wrappers uncounted.
type span struct {
	on               *atomic.Bool
	calls, timed, ns int64
}

func (s *span) active() bool { return s.on == nil || s.on.Load() }

// add counts and times a call that began at since, returning when it
// ended (zero while recording is off).
func (s *span) add(since time.Time) time.Time {
	if !s.active() {
		return time.Time{}
	}
	s.calls++
	return s.done(since)
}

// count counts a call without timing it.
func (s *span) count() {
	if s.active() {
		s.calls++
	}
}

// sample counts a call and reports whether to time it.
func (s *span) sample() bool {
	if !s.active() {
		return false
	}
	s.calls++
	return s.calls%sampleEvery == 1
}

// done times a sampled call that began at since, returning when it
// ended.
func (s *span) done(since time.Time) time.Time {
	end := time.Now()
	s.timed++
	s.ns += int64(end.Sub(since))
	return end
}

func (s *span) merge(o span) {
	s.calls += o.calls
	s.timed += o.timed
	s.ns += o.ns
}

// total estimates the time spent in every call, timed or not, less
// the clock's own cost inside each timed interval.
func (s span) total(clockNs float64) float64 {
	if s.timed == 0 {
		return 0
	}
	per := float64(s.ns)/float64(s.timed) - clockNs
	return max(per, 0) * float64(s.calls)
}

// clockOverhead is the median duration of an empty timed interval.
func clockOverhead() float64 {
	xs := make([]float64, 2001)
	for i := range xs {
		t := time.Now()
		xs[i] = float64(time.Since(t))
	}
	return median(xs)
}

// detSpans are one detector's counters; fit includes the leave-one-out
// calibration scores of self-calibrating techniques. last is when its
// latest timed call ended.
type detSpans struct {
	name       string
	fit, score span
	last       time.Time
}

// ended notes a timed call's end.
func (d *detSpans) ended(t time.Time) {
	if t.After(d.last) {
		d.last = t
	}
}

type transformSpans struct{ collect, emit span }

type thresholdSpans struct{ fit, violations span }

type filterSpans struct{ filter, kept span }

// layers registers the counters of every wrapper made for one run.
// The wrappers record while on is set.
type layers struct {
	on         atomic.Bool
	mu         sync.Mutex
	detectors  []*detSpans
	transforms []*transformSpans
	thresholds []*thresholdSpans
	filters    []*filterSpans
	journal    span
}

func newLayers(on bool) *layers {
	l := &layers{}
	l.on.Store(on)
	l.journal = l.span()
	return l
}

// span returns an empty span recording while l is on.
func (l *layers) span() span { return span{on: &l.on} }

func register[T any](l *layers, list *[]*T, v *T) *T {
	l.mu.Lock()
	*list = append(*list, v)
	l.mu.Unlock()
	return v
}

// snapshotter is the method set shared by the detector, transform,
// thresholds and core Snapshotter interfaces.
type snapshotter interface {
	Snapshot() ([]byte, error)
	Restore(data []byte) error
}

// snapFwd forwards a Snapshotter untimed: snapshots are not part of
// the measured path.
type snapFwd struct{ s snapshotter }

func (f snapFwd) Snapshot() ([]byte, error) { return f.s.Snapshot() }
func (f snapFwd) Restore(data []byte) error { return f.s.Restore(data) }

// timedDetector times Fit and Score.
type timedDetector struct {
	d  detector.Detector
	sp *detSpans
}

func (w *timedDetector) Name() string           { return w.d.Name() }
func (w *timedDetector) Channels() int          { return w.d.Channels() }
func (w *timedDetector) ChannelNames() []string { return w.d.ChannelNames() }

func (w *timedDetector) Fit(ref [][]float64) error {
	t := time.Now()
	err := w.d.Fit(ref)
	w.sp.ended(w.sp.fit.add(t))
	return err
}

func (w *timedDetector) Score(x []float64) ([]float64, error) {
	if !w.sp.score.sample() {
		return w.d.Score(x)
	}
	t := time.Now()
	s, err := w.d.Score(x)
	w.sp.ended(w.sp.score.done(t))
	return s, err
}

type scoreIntoFwd struct {
	is detector.IntoScorer
	sp *detSpans
}

func (f scoreIntoFwd) ScoreInto(x, dst []float64) error {
	if !f.sp.score.sample() {
		return f.is.ScoreInto(x, dst)
	}
	t := time.Now()
	err := f.is.ScoreInto(x, dst)
	f.sp.ended(f.sp.score.done(t))
	return err
}

// looFwd times leave-one-out calibration as part of the fit; it is not
// counted as a second fit.
type looFwd struct {
	sc detector.SelfCalibrator
	sp *detSpans
}

func (f looFwd) LOOScores() [][]float64 {
	t := time.Now()
	s := f.sc.LOOScores()
	if f.sp.fit.active() {
		end := time.Now()
		f.sp.fit.ns += int64(end.Sub(t))
		f.sp.ended(end)
	}
	return s
}

// detector wraps d, keeping exactly its optional interfaces.
func (l *layers) detector(d detector.Detector) detector.Detector {
	sp := register(l, &l.detectors, &detSpans{name: d.Name(), fit: l.span(), score: l.span()})
	w := &timedDetector{d: d, sp: sp}
	is, into := d.(detector.IntoScorer)
	sn, snap := d.(detector.Snapshotter)
	sc, loo := d.(detector.SelfCalibrator)
	i, s, c := scoreIntoFwd{is, sp}, snapFwd{sn}, looFwd{sc, sp}
	switch {
	case into && snap && loo:
		return struct {
			*timedDetector
			scoreIntoFwd
			snapFwd
			looFwd
		}{w, i, s, c}
	case into && snap:
		return struct {
			*timedDetector
			scoreIntoFwd
			snapFwd
		}{w, i, s}
	case into && loo:
		return struct {
			*timedDetector
			scoreIntoFwd
			looFwd
		}{w, i, c}
	case snap && loo:
		return struct {
			*timedDetector
			snapFwd
			looFwd
		}{w, s, c}
	case into:
		return struct {
			*timedDetector
			scoreIntoFwd
		}{w, i}
	case snap:
		return struct {
			*timedDetector
			snapFwd
		}{w, s}
	case loo:
		return struct {
			*timedDetector
			looFwd
		}{w, c}
	default:
		return w
	}
}

// timedTransformer times Collect and Emit.
type timedTransformer struct {
	t  transform.Transformer
	sp *transformSpans
}

func (w *timedTransformer) Name() string           { return w.t.Name() }
func (w *timedTransformer) Dim() int               { return w.t.Dim() }
func (w *timedTransformer) FeatureNames() []string { return w.t.FeatureNames() }
func (w *timedTransformer) Ready() bool            { return w.t.Ready() }
func (w *timedTransformer) Reset()                 { w.t.Reset() }

func (w *timedTransformer) Collect(r timeseries.Record) {
	if !w.sp.collect.sample() {
		w.t.Collect(r)
		return
	}
	t := time.Now()
	w.t.Collect(r)
	w.sp.collect.done(t)
}

func (w *timedTransformer) Emit() []float64 {
	if !w.sp.emit.sample() {
		return w.t.Emit()
	}
	t := time.Now()
	x := w.t.Emit()
	w.sp.emit.done(t)
	return x
}

type emitIntoFwd struct {
	ie transform.IntoEmitter
	sp *transformSpans
}

func (f emitIntoFwd) EmitInto(dst []float64) {
	if !f.sp.emit.sample() {
		f.ie.EmitInto(dst)
		return
	}
	t := time.Now()
	f.ie.EmitInto(dst)
	f.sp.emit.done(t)
}

// transformer wraps t, keeping exactly its optional interfaces.
func (l *layers) transformer(t transform.Transformer) transform.Transformer {
	sp := register(l, &l.transforms, &transformSpans{collect: l.span(), emit: l.span()})
	w := &timedTransformer{t: t, sp: sp}
	ie, into := t.(transform.IntoEmitter)
	sn, snap := t.(transform.Snapshotter)
	e, s := emitIntoFwd{ie, sp}, snapFwd{sn}
	switch {
	case into && snap:
		return struct {
			*timedTransformer
			emitIntoFwd
			snapFwd
		}{w, e, s}
	case into:
		return struct {
			*timedTransformer
			emitIntoFwd
		}{w, e}
	case snap:
		return struct {
			*timedTransformer
			snapFwd
		}{w, s}
	default:
		return w
	}
}

// timedThresholder times Fit and Violations.
type timedThresholder struct {
	t  thresholds.Thresholder
	sp *thresholdSpans
}

func (w *timedThresholder) Values() []float64 { return w.t.Values() }

func (w *timedThresholder) Fit(calib [][]float64) error {
	t := time.Now()
	err := w.t.Fit(calib)
	w.sp.fit.add(t)
	return err
}

func (w *timedThresholder) Violations(scores []float64) []int {
	if !w.sp.violations.sample() {
		return w.t.Violations(scores)
	}
	t := time.Now()
	v := w.t.Violations(scores)
	w.sp.violations.done(t)
	return v
}

// thresholder wraps t, keeping its optional Snapshotter.
func (l *layers) thresholder(t thresholds.Thresholder) thresholds.Thresholder {
	w := &timedThresholder{t: t, sp: register(l, &l.thresholds, &thresholdSpans{fit: l.span(), violations: l.span()})}
	if sn, ok := t.(thresholds.Snapshotter); ok {
		return struct {
			*timedThresholder
			snapFwd
		}{w, snapFwd{sn}}
	}
	return w
}

// filter wraps a record filter, counting the records it keeps.
func (l *layers) filter(keep func(*timeseries.Record) bool) func(*timeseries.Record) bool {
	sp := register(l, &l.filters, &filterSpans{filter: l.span(), kept: l.span()})
	return func(r *timeseries.Record) bool {
		var ok bool
		if sp.filter.sample() {
			t := time.Now()
			ok = keep(r)
			sp.filter.done(t)
		} else {
			ok = keep(r)
		}
		if ok {
			sp.kept.count()
		}
		return ok
	}
}

// timedWriter times writes to the alarm journal's sink. The journal
// writes from whichever shard raised the alarm, so it locks.
type timedWriter struct {
	w  io.Writer
	mu sync.Mutex
	sp *span
}

func (t *timedWriter) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	start := time.Now()
	n, err := t.w.Write(p)
	t.sp.add(start)
	return n, err
}

// sink wraps the journal's sink.
func (l *layers) sink(w io.Writer) io.Writer { return &timedWriter{w: w, sp: &l.journal} }

// totals sums every wrapper's counters once the run has ended.
type totals struct {
	detectors             map[string]*detSpans
	collect, emit         span
	thrFit, thrViolations span
	filter, kept          span
	journal               span
}

func (l *layers) totals() totals {
	l.mu.Lock()
	defer l.mu.Unlock()
	t := totals{detectors: map[string]*detSpans{}, journal: l.journal}
	for _, d := range l.detectors {
		agg := t.detectors[d.name]
		if agg == nil {
			agg = &detSpans{name: d.name}
			t.detectors[d.name] = agg
		}
		agg.fit.merge(d.fit)
		agg.score.merge(d.score)
	}
	for _, s := range l.transforms {
		t.collect.merge(s.collect)
		t.emit.merge(s.emit)
	}
	for _, s := range l.thresholds {
		t.thrFit.merge(s.fit)
		t.thrViolations.merge(s.violations)
	}
	for _, f := range l.filters {
		t.filter.merge(f.filter)
		t.kept.merge(f.kept)
	}
	return t
}
