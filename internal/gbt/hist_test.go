package gbt

import (
	"math"
	"math/rand"
	"testing"

	"github.com/navarchos/pdm/internal/fitpool"
)

// TestBinsLosslessOnFewDistinct checks that with at most 256 distinct
// values per feature every distinct value occupies its own bin and the
// bin ranges collapse to single points.
func TestBinsLosslessOnFewDistinct(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	n, dim := 500, 3
	X := make([][]float64, n)
	for i := range X {
		X[i] = []float64{float64(rng.Intn(10)), float64(rng.Intn(200)) / 7, 1.5}
	}
	b := buildBins(X, dim)
	if b.nbins[0] != 10 || b.nbins[2] != 1 {
		t.Fatalf("nbins = %v, want feature 0 -> 10, feature 2 -> 1", b.nbins)
	}
	for f := 0; f < dim; f++ {
		for k := 0; k < b.nbins[f]; k++ {
			if b.lo[f][k] != b.hi[f][k] {
				t.Fatalf("feature %d bin %d not a point: [%v, %v]", f, k, b.lo[f][k], b.hi[f][k])
			}
		}
		for i, row := range X {
			k := int(b.binned[f][i])
			if b.lo[f][k] != row[f] {
				t.Fatalf("feature %d row %d: value %v binned to bin %d = %v", f, i, row[f], k, b.lo[f][k])
			}
		}
	}
}

// TestBinsQuantisedOnManyDistinct checks the coarse branch: >256
// distinct values are spread over exactly 256 ordered, range-disjoint
// bins and every row lands in the bin covering its value.
func TestBinsQuantisedOnManyDistinct(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	n := 3000
	X := make([][]float64, n)
	for i := range X {
		X[i] = []float64{rng.NormFloat64()}
	}
	b := buildBins(X, 1)
	if b.nbins[0] != maxBins {
		t.Fatalf("nbins = %d, want %d", b.nbins[0], maxBins)
	}
	for k := 0; k < maxBins; k++ {
		if b.lo[0][k] > b.hi[0][k] {
			t.Fatalf("bin %d inverted: [%v, %v]", k, b.lo[0][k], b.hi[0][k])
		}
		if k > 0 && b.hi[0][k-1] >= b.lo[0][k] {
			t.Fatalf("bins %d and %d overlap", k-1, k)
		}
	}
	for i, row := range X {
		k := int(b.binned[0][i])
		if row[0] < b.lo[0][k] || row[0] > b.hi[0][k] {
			t.Fatalf("row %d: value %v outside bin %d range [%v, %v]", i, row[0], k, b.lo[0][k], b.hi[0][k])
		}
	}
}

// TestHistMatchesExactOnDiscreteFeatures trains the histogram and the
// legacy exact path on data where binning is lossless and requires
// identical tree structures: same splits, same thresholds, same leaves.
// The sampled configurations make features leave and re-enter the
// per-tree sample while node histograms are recycled across trees, so
// stale slots of unsampled features must never leak into a split.
func TestHistMatchesExactOnDiscreteFeatures(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n, dim := 400, 4
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		row := make([]float64, dim)
		for j := range row {
			row[j] = float64(rng.Intn(50)) / 3
		}
		X[i] = row
		y[i] = row[0]*2 - row[1] + 0.3*row[2]*row[3] + 0.01*rng.NormFloat64()
	}
	for _, cfg := range []Config{
		{NumTrees: 20, MaxDepth: 4, Seed: 7},
		{NumTrees: 20, MaxDepth: 4, Seed: 7, Subsample: 0.7, ColSample: 0.5},
		{NumTrees: 20, MaxDepth: 4, Seed: 11, Subsample: 0.9, ColSample: 0.75},
	} {
		legacyCfg := cfg
		legacyCfg.LegacyFitKernels = true
		exact, err := Train(X, y, legacyCfg)
		if err != nil {
			t.Fatal(err)
		}
		hist, err := Train(X, y, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(exact.trees) != len(hist.trees) {
			t.Fatalf("%+v: tree count differs: %d vs %d", cfg, len(exact.trees), len(hist.trees))
		}
		for ti := range exact.trees {
			en, hn := exact.trees[ti].nodes, hist.trees[ti].nodes
			if len(en) != len(hn) {
				t.Fatalf("%+v: tree %d node count differs: %d vs %d", cfg, ti, len(en), len(hn))
			}
			for ni := range en {
				e, h := en[ni], hn[ni]
				if e.isLeaf != h.isLeaf || e.feature != h.feature ||
					e.left != h.left || e.right != h.right ||
					math.Float64bits(e.threshold) != math.Float64bits(h.threshold) {
					t.Fatalf("%+v: tree %d node %d differs: exact %+v hist %+v", cfg, ti, ni, e, h)
				}
				if math.Abs(e.leaf-h.leaf) > 1e-9 {
					t.Fatalf("%+v: tree %d node %d leaf differs: %v vs %v", cfg, ti, ni, e.leaf, h.leaf)
				}
			}
		}
	}
}

// TestHistNaNSlot pins the NaN handling of the binned split search on
// a feature with exactly maxBins finite distinct values plus NaN rows:
// the binning must stay lossless (NaN is no value bin), every NaN row
// must land in the slot past the value bins, and the gain the split
// scan reports must be the gain of the partition grow makes with the
// chosen threshold — which puts NaN rows right (X < thr is false). The
// gradients are small integers, so both sides sum exactly and the
// gains compare bit for bit.
func TestHistNaNSlot(t *testing.T) {
	var X [][]float64
	var grad []float64
	for rep := 0; rep < 2; rep++ {
		for v := 0; v < maxBins; v++ {
			X = append(X, []float64{float64(v)})
			g := -1.0
			if v >= 100 {
				g = 2
			}
			grad = append(grad, g)
		}
	}
	for i := 0; i < 40; i++ {
		X = append(X, []float64{math.NaN()})
		grad = append(grad, -6) // strong enough to flip the split if miscounted
	}
	bins := buildBins(X, 1)
	if bins.nbins[0] != maxBins {
		t.Fatalf("nbins = %d, want %d (lossless: NaN must not take a value bin)", bins.nbins[0], maxBins)
	}
	nanRows := 0
	for i, row := range X {
		k := int(bins.binned[0][i])
		if math.IsNaN(row[0]) {
			nanRows++
			if k != bins.nbins[0] {
				t.Fatalf("NaN row %d in slot %d, want %d", i, k, bins.nbins[0])
			}
			continue
		}
		if bins.lo[0][k] != row[0] || bins.hi[0][k] != row[0] {
			t.Fatalf("row %d: value %v in bin %d = [%v, %v]", i, row[0], k, bins.lo[0][k], bins.hi[0][k])
		}
	}

	cfg := Config{}
	cfg.defaults()
	hb := &histBuilder{
		X: X, grad: grad, cfg: cfg, bins: bins, dim: 1,
		inBag: make([]bool, len(X)), feats: []bool{true},
		cands: make([]histCand, 1),
	}
	rows := make([]int, len(X))
	var gTot float64
	for i := range rows {
		rows[i] = i
		hb.inBag[i] = true
		gTot += grad[i]
	}
	hTot := float64(len(rows))
	h := hb.get()
	hb.fill(h, rows)
	if got := h.cnt[bins.nbins[0]]; got != float64(nanRows) {
		t.Fatalf("NaN slot count = %v, want %d", got, nanRows)
	}
	feat, thr, gain := hb.bestSplit(h, gTot, hTot)
	if feat != 0 {
		t.Fatalf("no split found (feature %d)", feat)
	}
	var gl, hl float64
	for _, i := range rows {
		if X[i][0] < thr { // grow's partition
			gl += grad[i]
			hl++
		}
	}
	gr, hr := gTot-gl, hTot-hl
	parent := gTot * gTot / (hTot + cfg.Lambda)
	want := 0.5 * (gl*gl/(hl+cfg.Lambda) + gr*gr/(hr+cfg.Lambda) - parent)
	if math.Float64bits(gain) != math.Float64bits(want) {
		t.Fatalf("split at %v: scan gain %v, partition gain %v (NaN rows on different sides)", thr, gain, want)
	}
}

// TestHistQualityOnContinuousFeatures checks that with genuinely
// continuous features (lossy 256-bin quantisation, plus subsampling) the
// histogram path still fits the function about as well as the exact
// path.
func TestHistQualityOnContinuousFeatures(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	n := 1200
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		row := []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
		X[i] = row
		y[i] = math.Sin(row[0]) + row[1]*row[1] - row[2]
	}
	mse := func(r *Regressor) float64 {
		var s float64
		for i := range X {
			d := r.Predict(X[i]) - y[i]
			s += d * d
		}
		return s / float64(n)
	}
	cfg := Config{NumTrees: 40, MaxDepth: 4, Subsample: 0.8, ColSample: 0.9, Seed: 5}
	legacyCfg := cfg
	legacyCfg.LegacyFitKernels = true
	exact, err := Train(X, y, legacyCfg)
	if err != nil {
		t.Fatal(err)
	}
	hist, err := Train(X, y, cfg)
	if err != nil {
		t.Fatal(err)
	}
	me, mh := mse(exact), mse(hist)
	if mh > me*1.25+0.01 {
		t.Fatalf("hist mse %v much worse than exact %v", mh, me)
	}
}

// TestHistDeterministicAcrossWorkers checks the parallel feature scan
// contract: the trained ensemble is bitwise independent of the fitpool
// worker count.
func TestHistDeterministicAcrossWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	n, dim := 600, 5
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		row := make([]float64, dim)
		for j := range row {
			row[j] = rng.NormFloat64()
		}
		X[i] = row
		y[i] = row[0] - row[3]
	}
	train := func(workers int) *Regressor {
		defer fitpool.SetWorkers(fitpool.Workers())
		fitpool.SetWorkers(workers)
		r, err := Train(X, y, Config{NumTrees: 15, MaxDepth: 4, Seed: 8})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	a, b := train(1), train(6)
	for ti := range a.trees {
		an, bn := a.trees[ti].nodes, b.trees[ti].nodes
		if len(an) != len(bn) {
			t.Fatalf("tree %d node count depends on workers", ti)
		}
		for ni := range an {
			if an[ni] != bn[ni] {
				t.Fatalf("tree %d node %d depends on workers: %+v vs %+v", ti, ni, an[ni], bn[ni])
			}
		}
	}
}

func benchData(n, dim int) ([][]float64, []float64) {
	rng := rand.New(rand.NewSource(9))
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		row := make([]float64, dim)
		for j := range row {
			row[j] = rng.NormFloat64()
		}
		X[i] = row
		y[i] = row[0] * row[1]
	}
	return X, y
}

func BenchmarkHistogramSplit(b *testing.B) {
	X, y := benchData(2000, 10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Train(X, y, Config{NumTrees: 10, MaxDepth: 4, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExactSplit(b *testing.B) {
	X, y := benchData(2000, 10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Train(X, y, Config{NumTrees: 10, MaxDepth: 4, Seed: 1, LegacyFitKernels: true}); err != nil {
			b.Fatal(err)
		}
	}
}
