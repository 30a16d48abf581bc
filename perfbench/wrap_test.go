package main

import (
	"fmt"
	"testing"

	"github.com/navarchos/pdm/internal/core"
	"github.com/navarchos/pdm/internal/detector"
	"github.com/navarchos/pdm/internal/eval"
	"github.com/navarchos/pdm/internal/thresholds"
	"github.com/navarchos/pdm/internal/timeseries"
	"github.com/navarchos/pdm/internal/transform"
)

// optional lists every optional interface the pipeline probes for on
// a component, as a name and a type assertion.
type optional struct {
	name string
	has  func(any) bool
}

func implements[I any](name string) optional {
	return optional{name, func(v any) bool { _, ok := v.(I); return ok }}
}

var (
	detectorOptionals = []optional{
		implements[detector.IntoScorer]("detector.IntoScorer"),
		implements[detector.SelfCalibrator]("detector.SelfCalibrator"),
		implements[detector.Snapshotter]("detector.Snapshotter"),
		implements[core.Snapshotter]("core.Snapshotter"),
	}
	transformerOptionals = []optional{
		implements[transform.IntoEmitter]("transform.IntoEmitter"),
		implements[transform.Snapshotter]("transform.Snapshotter"),
		implements[core.Snapshotter]("core.Snapshotter"),
	}
	thresholderOptionals = []optional{
		implements[thresholds.Snapshotter]("thresholds.Snapshotter"),
		implements[core.Snapshotter]("core.Snapshotter"),
	}
)

// sameOptionals fails when the wrapper hides an optional interface the
// wrapped value implements, or claims one it does not.
func sameOptionals(t *testing.T, what string, inner, wrapped any, opts []optional) {
	t.Helper()
	for _, o := range opts {
		if got, want := o.has(wrapped), o.has(inner); got != want {
			t.Errorf("%s: wrapper implements %s = %v, wrapped value = %v", what, o.name, got, want)
		}
	}
}

// bareDetector implements only detector.Detector.
type bareDetector struct{}

func (bareDetector) Name() string                         { return "bare" }
func (bareDetector) Fit([][]float64) error                { return nil }
func (bareDetector) Score(x []float64) ([]float64, error) { return x, nil }
func (bareDetector) Channels() int                        { return 1 }
func (bareDetector) ChannelNames() []string               { return []string{"x"} }

// bareTransformer implements only transform.Transformer.
type bareTransformer struct{}

func (bareTransformer) Name() string              { return "bare" }
func (bareTransformer) Dim() int                  { return 1 }
func (bareTransformer) FeatureNames() []string    { return []string{"x"} }
func (bareTransformer) Collect(timeseries.Record) {}
func (bareTransformer) Ready() bool               { return false }
func (bareTransformer) Emit() []float64           { return nil }
func (bareTransformer) Reset()                    {}

// bareThresholder implements only thresholds.Thresholder.
type bareThresholder struct{}

func (bareThresholder) Fit([][]float64) error      { return nil }
func (bareThresholder) Violations([]float64) []int { return nil }
func (bareThresholder) Values() []float64          { return nil }

func TestWrappersKeepOptionalInterfaces(t *testing.T) {
	l := newLayers(true)
	for _, kind := range transform.AllKinds() {
		tr, err := transform.New(kind, 12)
		if err != nil {
			t.Fatal(err)
		}
		sameOptionals(t, "transformer "+kind.String(), tr, l.transformer(tr), transformerOptionals)

		names := tr.FeatureNames()
		techs := append(eval.PaperTechniques(), eval.ExtensionTechniques()...)
		builders := map[string]func(eval.Technique, []string, int64) (detector.Detector, error){
			"NewDetector":           eval.NewDetector,
			"NewBaselineDetector":   eval.NewBaselineDetector,
			"NewFullWindowDetector": eval.NewFullWindowDetector,
		}
		for bname, build := range builders {
			for _, tech := range techs {
				d, err := build(tech, names, 1)
				if err != nil {
					continue // not every builder covers every technique
				}
				what := fmt.Sprintf("%s(%s) over %s", bname, tech, kind)
				sameOptionals(t, what, d, l.detector(d), detectorOptionals)
			}
		}
	}
	for _, th := range []thresholds.Thresholder{thresholds.NewSelfTuning(5), thresholds.NewConstant(0.9)} {
		sameOptionals(t, fmt.Sprintf("thresholder %T", th), th, l.thresholder(th), thresholderOptionals)
	}
	sameOptionals(t, "bare detector", bareDetector{}, l.detector(bareDetector{}), detectorOptionals)
	sameOptionals(t, "bare transformer", bareTransformer{}, l.transformer(bareTransformer{}), transformerOptionals)
	sameOptionals(t, "bare thresholder", bareThresholder{}, l.thresholder(bareThresholder{}), thresholderOptionals)
}

// TestWrappersCount checks that the wrappers count every call and time
// one in sampleEvery of the hot ones.
func TestWrappersCount(t *testing.T) {
	l := newLayers(true)
	keep := l.filter(func(*timeseries.Record) bool { return true })
	for i := 0; i < 10*sampleEvery; i++ {
		keep(&timeseries.Record{})
	}
	d := l.detector(bareDetector{})
	if err := d.Fit(nil); err != nil {
		t.Fatal(err)
	}
	l.on.Store(false)
	keep(&timeseries.Record{})
	if err := d.Fit(nil); err != nil {
		t.Fatal(err)
	}
	lt := l.totals()
	if lt.filter.calls != 10*sampleEvery || lt.filter.timed != 10 || lt.kept.calls != 10*sampleEvery {
		t.Errorf("filter span %+v kept %d, want %d calls, 10 timed, all kept", lt.filter, lt.kept.calls, 10*sampleEvery)
	}
	if got := lt.detectors["bare"]; got == nil || got.fit.calls != 1 || got.fit.timed != 1 {
		t.Errorf("detector spans %+v, want one timed fit", got)
	}
}
