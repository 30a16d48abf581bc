package fleet

import (
	"io"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"
	"unsafe"

	"github.com/navarchos/pdm/internal/core"
	"github.com/navarchos/pdm/internal/detector"
	"github.com/navarchos/pdm/internal/fleetsim"
	"github.com/navarchos/pdm/internal/obd"
	"github.com/navarchos/pdm/internal/obs"
	"github.com/navarchos/pdm/internal/timeseries"
)

// TestEnvelopeLayout pins the queued record form: one 64-byte cache
// line, and no field the garbage collector would have to scan.
func TestEnvelopeLayout(t *testing.T) {
	if got := unsafe.Sizeof(envelope{}); got != 64 {
		t.Errorf("envelope is %d bytes, want 64", got)
	}
	var walk func(tp reflect.Type, path string)
	walk = func(tp reflect.Type, path string) {
		switch tp.Kind() {
		case reflect.Struct:
			for i := 0; i < tp.NumField(); i++ {
				f := tp.Field(i)
				walk(f.Type, path+"."+f.Name)
			}
		case reflect.Array:
			walk(tp.Elem(), path+"[]")
		case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
			reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		default:
			t.Errorf("%s is a %s: envelopes must hold no pointers", path, tp.Kind())
		}
	}
	walk(reflect.TypeOf(envelope{}), "envelope")
}

// parkHandler counts records and, when fitAt is reached, raises a
// deferred fit that blocks until release closes — holding its vehicle
// parked for as long as the test needs.
type parkHandler struct {
	n       uint64
	fitAt   uint64
	pending func() error
	release chan struct{}
	times   []time.Time // delivered record times, when non-nil
}

func (h *parkHandler) HandleRecord(r timeseries.Record) ([]detector.Alarm, error) {
	h.n++
	if h.n == h.fitAt {
		h.pending = func() error { <-h.release; return nil }
	}
	if h.times != nil {
		h.times = append(h.times, r.Time)
	}
	return nil, nil
}
func (h *parkHandler) HandleEvent(obd.Event)                  {}
func (h *parkHandler) ScoredSamples() uint64                  { return h.n }
func (h *parkHandler) SetDeferFits(bool)                      {}
func (h *parkHandler) SetProvenance(*obs.BatchCtx, time.Time) {}
func (h *parkHandler) TakePendingFit() func() error {
	f := h.pending
	h.pending = nil
	return f
}

// recordsDelivered sums the shards' record counters without the
// allocation Stats makes.
func (e *Engine) recordsDelivered() uint64 {
	var n uint64
	for _, s := range e.shards {
		n += s.recordsIn.Load()
	}
	return n
}

// TestIngestSteadyStateAllocs pins the admission path's allocation
// budget: once warm, a traced 512-record frame through IngestBatchCtx,
// Flush and shard delivery allocates nothing per record — including the
// records of a vehicle parked behind an in-flight fit.
func TestIngestSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	const vehicles, steps = 8, 64
	release := make(chan struct{})
	e, err := NewEngine(Config{
		NewHandler: func(id string) (Handler, error) {
			h := &parkHandler{release: release}
			if id == "veh-0" {
				h.fitAt = 1 // fits on its first record, and stays fitting
			}
			return h, nil
		},
		Shards:    2,
		BatchSize: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]string, vehicles)
	onParkedShard := false
	for v := range ids {
		ids[v] = "veh-" + itoa(v)
		onParkedShard = onParkedShard || v > 0 && e.shardFor(ids[v]) == e.shardFor("veh-0")
	}
	if !onParkedShard {
		t.Fatal("no other vehicle shares veh-0's shard; the delivery wait below would not cover its parking")
	}
	// Vehicle-interleaved, so every shard's last envelope of a frame is
	// a delivered one: once the delivered count is reached, the parked
	// vehicle's envelopes have been processed too.
	frame := make([]timeseries.Record, 0, vehicles*steps)
	base := time.Date(2023, 6, 1, 8, 0, 0, 0, time.UTC)
	for i := 0; i < steps; i++ {
		for _, id := range ids {
			frame = append(frame, timeseries.Record{VehicleID: id, Time: base.Add(time.Duration(i) * time.Minute)})
		}
	}
	const warm, runs = 20, 50
	bcs := make([]obs.BatchCtx, warm+runs+1) // AllocsPerRun adds one warm-up call
	used := 0
	want := uint64(0)
	ingest := func() {
		if err := e.IngestBatchCtx(frame, nil, &bcs[used]); err != nil {
			t.Fatal(err)
		}
		used++
		e.Flush()
		want += (vehicles - 1) * steps
		for e.recordsDelivered() < want {
			runtime.Gosched()
		}
	}
	want = 1 // veh-0's first record is delivered, then its fit parks the rest
	for i := 0; i < warm; i++ {
		ingest()
	}
	if allocs := testing.AllocsPerRun(runs, ingest); allocs != 0 {
		t.Errorf("%.1f allocations per %d-record frame, want 0", allocs, len(frame))
	}
	close(release)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if got, all := e.Stats().RecordsIn, uint64(used*len(frame)); got != all {
		t.Fatalf("RecordsIn = %d after the fit landed, want %d", got, all)
	}
}

// TestCheckpointKeepsFreeListFull is the barrier-recycling regression:
// a quiesce's barrier used to ride in a one-envelope batch that the
// shard then recycled, so the next producer to draw it re-grew it.
// After live checkpoints, every batch on a free list must have room for
// a full BatchSize.
func TestCheckpointKeepsFreeListFull(t *testing.T) {
	const batchSize = 16
	e, err := NewEngine(Config{
		NewConfig:  func(string) (core.Config, error) { return core.Config{}, ErrSkipVehicle },
		Shards:     2,
		BatchSize:  batchSize,
		QueueDepth: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	recs := benchStream(8, 64)
	for i := 0; i < 4; i++ {
		if err := e.IngestBatch(recs, nil); err != nil {
			t.Fatal(err)
		}
		e.Flush() // nothing pending: the barrier travels on its own
		if err := e.Checkpoint(io.Discard); err != nil {
			t.Fatal(err)
		}
		_ = e.StatsConsistent()
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	seen := 0
	for _, s := range e.shards {
		for len(s.free) > 0 {
			b := <-s.free
			seen++
			if cap(b.envs) < batchSize || b.bar != nil {
				t.Errorf("shard %d free list holds a batch of capacity %d (barrier %v), want ≥ %d and none",
					s.index, cap(b.envs), b.bar != nil, batchSize)
			}
		}
	}
	if seen == 0 {
		t.Fatal("no recycled batches to inspect")
	}
}

// TestReplayConcurrentProducers: Replay is plain IngestBatch now, so
// several producers may replay disjoint vehicle sets at once — with a
// live checkpoint racing them — and still reproduce the serial alarms.
func TestReplayConcurrentProducers(t *testing.T) {
	f := smallFleet()
	want := serialAlarms(t, f)
	e, err := NewEngine(Config{
		NewConfig: func(string) (core.Config, error) { return testConfig(), nil },
		Shards:    2,
		BatchSize: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	collect := drainAlarms(e)
	halves := make([]*fleetsim.Fleet, 2)
	for i := range halves {
		halves[i] = &fleetsim.Fleet{}
	}
	part := map[string]int{}
	for i, id := range f.AllVehicleIDs() {
		part[id] = i % 2
	}
	for _, r := range f.Records {
		h := halves[part[r.VehicleID]]
		h.Records = append(h.Records, r)
	}
	for _, ev := range f.Events {
		h := halves[part[ev.VehicleID]]
		h.Events = append(h.Events, ev)
	}
	var wg sync.WaitGroup
	for _, h := range halves {
		wg.Add(1)
		go func(h *fleetsim.Fleet) {
			defer wg.Done()
			if err := e.Replay(h.Records, h.Events); err != nil {
				t.Error(err)
			}
		}(h)
	}
	_ = e.StatsConsistent()
	wg.Wait()
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	got := collect()
	sortAlarms(got)
	requireSameAlarms(t, "concurrent Replay", got, want)
}

// TestDeliveredRecordTimeIsUTC pins the delivery contract: a record's
// Time reaches its handler rebuilt from unix nanoseconds in UTC — the
// same instant, in the form the wire decoder produces.
func TestDeliveredRecordTimeIsUTC(t *testing.T) {
	h := &parkHandler{times: []time.Time{}}
	e, err := NewEngine(Config{NewHandler: func(string) (Handler, error) { return h, nil }, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	sent := time.Date(2023, 6, 1, 10, 30, 0, 123, time.FixedZone("EET", 2*3600))
	if err := e.IngestRecord(timeseries.Record{VehicleID: "v", Time: sent}); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if len(h.times) != 1 {
		t.Fatalf("delivered %d records, want 1", len(h.times))
	}
	if got, want := h.times[0], time.Unix(0, sent.UnixNano()).UTC(); got != want || !got.Equal(sent) {
		t.Fatalf("delivered Time %v, want %v (the same instant as %v, in UTC)", got, want, sent)
	}
}

// TestReplayUnorderedInput: streams that are not time-sorted are put
// in core.Merged's order once, by Replay and by IngestBatch alike, so a
// shuffled fleet still reproduces the serial alarms.
func TestReplayUnorderedInput(t *testing.T) {
	f := smallFleet()
	want := serialAlarms(t, f)
	rng := rand.New(rand.NewSource(7))
	recs := slices.Clone(f.Records)
	evs := slices.Clone(f.Events)
	rng.Shuffle(len(recs), func(i, j int) { recs[i], recs[j] = recs[j], recs[i] })
	rng.Shuffle(len(evs), func(i, j int) { evs[i], evs[j] = evs[j], evs[i] })
	for _, whole := range []bool{false, true} {
		e, err := NewEngine(Config{
			NewConfig: func(string) (core.Config, error) { return testConfig(), nil },
			Shards:    2,
			BatchSize: 16,
		})
		if err != nil {
			t.Fatal(err)
		}
		collect := drainAlarms(e)
		if whole {
			err = e.IngestBatch(recs, evs) // one call: the stage sorts it
		} else {
			err = e.Replay(recs, evs)
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
		got := collect()
		sortAlarms(got)
		requireSameAlarms(t, "shuffled input", got, want)
	}
}
