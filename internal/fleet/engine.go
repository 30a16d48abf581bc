// Package fleet implements a sharded, concurrent multi-vehicle
// streaming engine on top of the per-vehicle core.Pipeline — the
// production-scale driver the ROADMAP's fleet-level condition monitoring
// calls for.
//
// Vehicles are hashed to N shards. Each shard goroutine exclusively owns
// its vehicles' pipelines, so the scoring hot path takes no locks:
// synchronisation happens only at the edges, on the bounded per-shard
// batch channels (ingest backpressure) and the fan-in alarm channel.
// Within a shard, envelopes are processed strictly in arrival order, so
// feeding a chronologically merged stream (events before same-timestamp
// records, as core.RunVehicle orders them — Replay does this) makes the
// engine's per-vehicle behaviour bit-identical to a serial replay,
// whatever the shard count.
package fleet

import (
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/navarchos/pdm/internal/core"
	"github.com/navarchos/pdm/internal/detector"
	"github.com/navarchos/pdm/internal/fitpool"
	"github.com/navarchos/pdm/internal/obd"
	"github.com/navarchos/pdm/internal/obs"
	"github.com/navarchos/pdm/internal/timeseries"
)

// FitDeferrer is the optional handler seam behind asynchronous refits:
// handlers that support it (core.Pipeline does) raise profile-fill fits
// as pending closures instead of fitting inline, and the engine runs the
// closure on a fitpool worker while the shard keeps scoring its other
// vehicles. Envelopes for the fitting vehicle are parked and replayed in
// arrival order once the fit lands, so per-vehicle behaviour stays
// bit-identical to synchronous fits.
type FitDeferrer interface {
	SetDeferFits(bool)
	TakePendingFit() func() error
}

// ErrSkipVehicle can be returned by Config.NewConfig to tell the engine
// that a vehicle is not part of this run: its records and events are
// counted but otherwise ignored, and no pipeline is built for it.
var ErrSkipVehicle = errors.New("fleet: vehicle not in run set")

// ErrClosed is returned by ingestion methods after Close.
var ErrClosed = errors.New("fleet: engine closed")

// Handler processes one vehicle's stream elements. core.Pipeline is the
// production handler (transform + detect + threshold); core.TraceCollector
// runs just the transform stage, which is how the evaluation grid
// materialises each (transformation, vehicle) stream exactly once.
// Handlers are owned by a single shard goroutine and need no internal
// synchronisation.
type Handler interface {
	// HandleRecord feeds one raw record, returning any alarms raised.
	HandleRecord(timeseries.Record) ([]detector.Alarm, error)
	// HandleEvent feeds one maintenance event.
	HandleEvent(obd.Event)
	// ScoredSamples reports the handler's monotone output counter (scored
	// or emitted samples); the engine aggregates deltas into shard stats.
	ScoredSamples() uint64
}

// ProvenanceSink is implemented by handlers that can attribute the
// alarms they raise to an ingest batch (core.Pipeline implements it).
// The engine calls SetProvenance before HandleRecord: with the record's
// batch context and the shard's dequeue clock read on the traced path,
// and with (nil, zero) to clear stale context when untraced records
// follow traced ones. Handlers without the method simply never carry
// provenance — the engine probes with a type assertion, never requires
// it.
type ProvenanceSink interface {
	SetProvenance(bc *obs.BatchCtx, dequeue time.Time)
}

// Config assembles an Engine. Exactly one of NewConfig and NewHandler is
// required; everything else has defaults chosen for a laptop-scale
// deployment.
type Config struct {
	// NewConfig builds the pipeline configuration for a vehicle the
	// first time one of its records or events arrives. Return
	// ErrSkipVehicle to exclude the vehicle from the run. NewConfig is
	// called from shard goroutines, one call per vehicle; it must be
	// safe for concurrent use across vehicles.
	NewConfig func(vehicleID string) (core.Config, error)

	// NewHandler builds an arbitrary per-vehicle Handler instead of a
	// core.Pipeline — the seam that lets the same sharded engine drive
	// transform-only trace collection or custom stages. Same contract as
	// NewConfig: called once per vehicle from shard goroutines, return
	// ErrSkipVehicle to exclude a vehicle. Mutually exclusive with
	// NewConfig.
	NewHandler func(vehicleID string) (Handler, error)

	// Shards is the number of shard goroutines (default runtime.NumCPU).
	Shards int
	// QueueDepth is the per-shard channel capacity in batches (default
	// 256). A full queue blocks ingestion — that is the backpressure.
	QueueDepth int
	// BatchSize is the number of envelopes per batch (default 64).
	// Batching amortises channel synchronisation across records.
	BatchSize int
	// AlarmBuffer is the fan-in alarm channel capacity (default 1024).
	AlarmBuffer int
	// DropAlarms makes shards drop (and count) alarms when the fan-in
	// channel is full instead of blocking on it. Set it when alarms are
	// advisory; leave it unset when every alarm must be observed, and
	// drain Alarms() concurrently.
	DropAlarms bool
	// SyncFits forces profile-fill refits to run inline on the shard
	// goroutine (the pre-optimisation behaviour). By default fits of
	// FitDeferrer handlers run asynchronously on fitpool workers, so one
	// vehicle's expensive refit never serialises the rest of its shard's
	// batch; the fitting vehicle's envelopes are parked and replayed in
	// order when the fit completes, keeping per-vehicle alarms
	// bit-identical either way.
	SyncFits bool
	// Observer, when non-nil, registers the engine's fleet-level
	// metrics in the observer's registry: per-shard queue depth and
	// counters (collection-time callbacks, free on the hot path), a
	// batch-processing latency histogram and a checkpoint-duration
	// histogram. The same observer is typically also set on the
	// per-vehicle core.Config built by NewConfig, which instruments the
	// pipeline stages themselves. One registry should observe one
	// engine at a time; a newer engine's registration takes over the
	// callback series of an older one.
	Observer *obs.Observer
}

func (c *Config) validate() error {
	if c.NewConfig == nil && c.NewHandler == nil {
		return errors.New("fleet: Config requires NewConfig or NewHandler")
	}
	if c.NewConfig != nil && c.NewHandler != nil {
		return errors.New("fleet: Config requires exactly one of NewConfig and NewHandler")
	}
	if c.Shards <= 0 {
		c.Shards = runtime.NumCPU()
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 64
	}
	if c.AlarmBuffer <= 0 {
		c.AlarmBuffer = 1024
	}
	return nil
}

// envelope is one queued stream element in the form the shard
// queues carry it: 64 bytes, no pointers. A batch of envelopes is
// therefore copied once (when the producer writes it) and never scanned
// by the garbage collector. Everything pointer-shaped travels out of
// band on the envelope's *batch: the vehicle's name (as a per-shard
// slot number), events (as an index into batch.events), the ingest
// provenance (as runs in batch.provs) and checkpoint barriers.
type envelope struct {
	slot uint32 // vehicle slot in the owning shard
	ev   uint32 // 0 for a record, i+1 for the batch's events[i]
	ns   int64  // record time, unix nanoseconds
	vals [obd.NumPIDs]float64
}

// provRun starts a run of envelopes sharing one ingest provenance
// context: envelopes from index at up to the next run's start carry bc
// (nil for untraced ingest).
type provRun struct {
	at int
	bc *obs.BatchCtx
}

// batch is the unit the shard queues move: up to BatchSize envelopes
// plus their out-of-band side data. names registers vehicles first seen
// by this batch's producers: they take the shard's next slots in order,
// and the shard goroutine appends them to its slot table before it
// processes the envelopes. A non-nil bar parks the shard after the
// batch's envelopes. Parked envelopes of a fitting vehicle are kept in
// a batch too, so they replay through the same loop.
type batch struct {
	envs   []envelope
	events []obd.Event
	names  []string
	provs  []provRun
	bar    *barrier
}

// prov is the provenance context of the batch's last envelope.
func (b *batch) prov() *obs.BatchCtx {
	if n := len(b.provs); n > 0 {
		return b.provs[n-1].bc
	}
	return nil
}

// park appends a copy of env, which belongs to a batch holding events
// and was delivered under prov.
func (b *batch) park(env *envelope, events []obd.Event, prov *obs.BatchCtx) {
	if prov != b.prov() {
		b.provs = append(b.provs, provRun{at: len(b.envs), bc: prov})
	}
	b.envs = append(b.envs, *env)
	if env.ev != 0 {
		b.events = append(b.events, events[env.ev-1])
		b.envs[len(b.envs)-1].ev = uint32(len(b.events))
	}
}

// reset empties the batch for reuse, dropping its references.
func (b *batch) reset() {
	b.envs = b.envs[:0]
	clear(b.events)
	b.events = b.events[:0]
	clear(b.names)
	b.names = b.names[:0]
	clear(b.provs)
	b.provs = b.provs[:0]
	b.bar = nil
}

// barrier pauses a shard at a batch boundary: the shard acknowledges
// arrival and then parks until the checkpoint releases it. While every
// shard is parked the checkpointing goroutine is the only one touching
// handler state.
type barrier struct {
	ack    sync.WaitGroup
	resume chan struct{}
}

// slot is one vehicle's entry in its shard's slot table, indexed by the
// envelope's slot number. The handler's optional interfaces are
// asserted once, when it is installed. parked is non-nil exactly while
// a fit for the vehicle is in flight: it queues the envelopes that
// arrive meanwhile, replayed in order when the fit lands.
type slot struct {
	id     string
	h      Handler
	ps     ProvenanceSink // h's, when it has one
	fd     FitDeferrer    // h's, unless fits run synchronously
	skip   bool           // excluded by the config, or failed
	parked *batch
}

// shard owns a disjoint subset of the fleet's pipelines. The struct is
// laid out in ownership bands with cache-line padding between them:
// producers mutate the ingest band (mu, pending, ids) while the shard
// goroutine bumps the counter band on every envelope, and without the
// padding those writes false-share — each counter increment would
// bounce the line holding the ingest mutex across cores and vice
// versa.
type shard struct {
	// Read-only header, set once at construction: the shard's identity
	// and its channels. free is the shard's batch free list — consumer→
	// producer recycling that pairs each Put with a Get for the same
	// shard, so recycled batches never migrate through sync.Pool's
	// per-P caches (a producer on another P would miss there and
	// allocate; the misses are what poolNew counts).
	index int
	in    chan *batch
	free  chan *batch
	_     [64]byte

	// ingest band: touched by producer goroutines under mu. ids maps a
	// vehicle to its slot number; a vehicle seen for the first time is
	// given the next slot and its name rides on the pending batch.
	mu      sync.Mutex
	pending *batch
	ids     map[string]uint32
	_       [64]byte

	// cordon band: the vehicle-availability fence behind Cordon and
	// ExtractVehicle. cordonMu guards the map; cordonN mirrors its size
	// so producers (under mu) skip the lock entirely while no vehicle is
	// fenced — the steady state, which therefore costs one atomic load.
	// The fence gets its own mutex so CordonState can read it while a
	// quiescer holds mu waiting for the barrier acknowledgement. Setters
	// additionally hold mu, which orders a new fence against in-flight
	// enqueues: envelopes admitted before the fence sit ahead of any
	// barrier a subsequent quiesce posts.
	cordonMu sync.Mutex
	cordon   map[string]string
	cordonN  atomic.Int64
	_        [64]byte

	// consumer band: owned by the shard goroutine, no synchronisation.
	// slots grows only at batch boundaries (a batch's names) or while
	// the shard is quiesced or stopped.
	slots []slot

	// Provenance tracking. lastProv is the most recent batch context
	// seen (pointer identity marks "same frame"), lastDequeue the clock
	// read taken when it first surfaced — reused as every one of its
	// records' dequeue time so tracing costs one clock read per (shard,
	// frame), not per record. sawProv stays false until the first
	// traced envelope, which keeps the untraced deliver path (Replay,
	// bit-identity gates, overhead gate) at a single nil check.
	lastProv    *obs.BatchCtx
	lastDequeue time.Time
	sawProv     bool

	// Asynchronous refits: busy counts slots with a fit in flight, parks
	// holds emptied parking batches for reuse, and fitDone carries
	// completions back to the shard goroutine.
	busy    int
	parks   []*batch
	fitDone chan fitResult
	_       [64]byte

	// counter band: written by the shard goroutine per envelope, read
	// by Stats and the metrics callbacks.
	vehicles  atomic.Int64
	recordsIn atomic.Uint64
	eventsIn  atomic.Uint64
	scored    atomic.Uint64
	alarms    atomic.Uint64
	drops     atomic.Uint64
	_         [64]byte
}

// slotOf returns a vehicle's slot number, allocating the next one on
// first sight. The caller holds s.mu. A new vehicle's name rides to the
// shard goroutine on b, the batch its first envelope is written into;
// with b nil the caller owns the shard goroutine's side too (quiesced
// or not running) and the slot is created directly.
func (s *shard) slotOf(id string, b *batch) uint32 {
	n, ok := s.ids[id]
	if !ok {
		n = uint32(len(s.ids))
		s.ids[id] = n
		if b != nil {
			b.names = append(b.names, id)
		} else {
			s.slots = append(s.slots, slot{id: id})
		}
	}
	return n
}

// ShardStats is a point-in-time snapshot of one shard's counters.
type ShardStats struct {
	Shard         int
	Vehicles      int
	RecordsIn     uint64
	EventsIn      uint64
	SamplesScored uint64
	Alarms        uint64
	Drops         uint64
}

// EngineStats aggregates the per-shard snapshots.
type EngineStats struct {
	Shards        []ShardStats
	Vehicles      int
	RecordsIn     uint64
	EventsIn      uint64
	SamplesScored uint64
	Alarms        uint64
	Drops         uint64
}

// Engine is the sharded fleet driver. Ingestion methods are safe for
// concurrent use from any number of producers; per-vehicle processing
// order follows per-producer ingestion order.
type Engine struct {
	cfg       Config
	shards    []*shard
	alarmCh   chan detector.Alarm
	pool      sync.Pool     // *batch recycling
	poolNew   atomic.Uint64 // batches allocated because the pool was empty
	stagePool sync.Pool     // *ingestStage per-producer staging
	wg        sync.WaitGroup

	batchH *obs.Histogram // per-batch processing latency (nil without observer)
	ckptH  *obs.Histogram // live checkpoint duration (nil without observer)

	closed atomic.Bool
	errMu  sync.Mutex
	err    error
}

// NewEngine builds and starts an engine; its shard goroutines run until
// Close.
func NewEngine(cfg Config) (*Engine, error) {
	e, err := newEngineStopped(cfg)
	if err != nil {
		return nil, err
	}
	e.start()
	return e, nil
}

// newEngineStopped builds the engine's shards without starting their
// goroutines, so checkpoint restore can pre-populate slot tables
// race-free before processing begins.
func newEngineStopped(cfg Config) (*Engine, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	e := &Engine{
		cfg:     cfg,
		shards:  make([]*shard, cfg.Shards),
		alarmCh: make(chan detector.Alarm, cfg.AlarmBuffer),
	}
	e.pool.New = func() any {
		e.poolNew.Add(1)
		return &batch{envs: make([]envelope, 0, cfg.BatchSize)}
	}
	for i := range e.shards {
		e.shards[i] = &shard{
			index:   i,
			in:      make(chan *batch, cfg.QueueDepth),
			free:    make(chan *batch, cfg.QueueDepth),
			ids:     map[string]uint32{},
			fitDone: make(chan fitResult),
		}
	}
	e.registerMetrics()
	return e, nil
}

// registerMetrics publishes the engine's fleet-level metric families in
// the observer's registry. Everything except the two histograms is a
// collection-time callback over the shard atomics, so the shard loop
// pays nothing for them.
func (e *Engine) registerMetrics() {
	o := e.cfg.Observer
	if o == nil {
		return
	}
	reg := o.Registry()
	e.batchH = reg.Histogram("pdm_fleet_batch_seconds",
		"Shard batch processing latency (one batch = up to BatchSize envelopes).", obs.DefLatencyBuckets)
	e.ckptH = reg.Histogram("pdm_fleet_checkpoint_seconds",
		"Live checkpoint duration: barrier quiesce + state serialization.", obs.DefLatencyBuckets)
	reg.GaugeFunc("pdm_fleet_vehicles",
		"Vehicles with an active handler across all shards.",
		func() float64 {
			var n int64
			for _, s := range e.shards {
				n += s.vehicles.Load()
			}
			return float64(n)
		})
	for _, s := range e.shards {
		s := s
		l := obs.Label{Key: "shard", Value: strconv.Itoa(s.index)}
		reg.GaugeFunc("pdm_fleet_shard_queue_depth",
			"Queued batches per shard (capacity is QueueDepth; a full queue is the backpressure point).",
			func() float64 { return float64(len(s.in)) }, l)
		reg.CounterFunc("pdm_fleet_shard_records_total",
			"Raw records processed per shard.",
			func() float64 { return float64(s.recordsIn.Load()) }, l)
		reg.CounterFunc("pdm_fleet_shard_events_total",
			"Maintenance events processed per shard.",
			func() float64 { return float64(s.eventsIn.Load()) }, l)
		reg.CounterFunc("pdm_fleet_shard_samples_scored_total",
			"Transformed samples scored per shard.",
			func() float64 { return float64(s.scored.Load()) }, l)
		reg.CounterFunc("pdm_fleet_shard_alarms_total",
			"Alarms delivered to the fan-in channel per shard.",
			func() float64 { return float64(s.alarms.Load()) }, l)
		reg.CounterFunc("pdm_fleet_shard_alarm_drops_total",
			"Alarms dropped per shard because the fan-in channel was full (DropAlarms mode).",
			func() float64 { return float64(s.drops.Load()) }, l)
	}
}

// start launches the shard goroutines.
func (e *Engine) start() {
	for _, s := range e.shards {
		e.wg.Add(1)
		go e.run(s)
	}
}

// Alarms returns the fan-in alarm channel. It is closed by Close, after
// all shards have drained.
func (e *Engine) Alarms() <-chan detector.Alarm { return e.alarmCh }

// shardFor hashes a vehicle ID onto its owning shard (FNV-1a).
func (e *Engine) shardFor(vehicleID string) *shard {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(vehicleID); i++ {
		h ^= uint64(vehicleID[i])
		h *= prime64
	}
	return e.shards[h%uint64(len(e.shards))]
}

// IngestRecord queues one record for its vehicle's shard, blocking when
// the shard's queue is full (backpressure). It is IngestBatch with a
// batch of one; a cordoned or mid-handoff vehicle is refused with a
// typed *VehicleUnavailableError.
func (e *Engine) IngestRecord(r timeseries.Record) error {
	return e.ingestBatch([]timeseries.Record{r}, nil, nil)
}

// IngestEvent queues one maintenance event for its vehicle's shard. An
// event ingested before a record is processed before it — callers feed
// streams chronologically with events first on equal timestamps, the
// same contract as core.RunVehicle (Replay does this automatically).
func (e *Engine) IngestEvent(ev obd.Event) error {
	return e.ingestBatch(nil, []obd.Event{ev}, nil)
}

// ingestStage is the producer-local staging area ingestBatch reuses
// across calls: per shard, the merged-order references of the items
// routed to it (index<<1, low bit set for events), so a whole call
// crosses each shard's ingest mutex in a single critical section and
// each envelope is written exactly once, straight into its batch. recs
// and evs hold a sorted copy of unordered input.
type ingestStage struct {
	refs [][]uint32
	recs []timeseries.Record
	evs  []obd.Event
}

// IngestBatch queues a whole decoded batch — records and events merged
// chronologically, events before same-timestamp records, exactly as
// core.Merged orders them — routing it to shards in one pass. It pays
// the shard hash once per item but the ingest mutex only once per
// (shard, call), which is what keeps a network ingest path off the
// engine's synchronisation edges. It is the engine's one way in:
// IngestRecord, IngestEvent and Replay are all written in terms of it.
// Each input slice should be time-sorted (the usual telemetry upload
// shape); unsorted batches are handled but fall back to a sorting
// merge. Record times must be representable as int64 unix nanoseconds
// (years 1678–2262): shards deliver each record with its Time rebuilt
// as time.Unix(0, ns).UTC(), the same instant the wire decoder yields.
//
// A full shard queue blocks the call (holding only that shard's ingest
// mutex) until the shard drains — that is the backpressure. The call
// leaves a partial batch pending; call Flush to push tails out when
// latency matters more than batching. Safe for concurrent use;
// per-shard envelope order follows per-producer call order.
//
// Items for a cordoned or mid-handoff vehicle are refused with a typed
// *VehicleUnavailableError. The refusal is all-or-nothing per vehicle
// (a vehicle's items all hash to one shard, and its fence cannot change
// while the shard's ingest mutex is held) but not per call: other
// vehicles' items in the same batch are admitted normally, and the
// error reports how many items were refused so the producer can retry
// exactly those vehicles against their new placement.
func (e *Engine) IngestBatch(records []timeseries.Record, events []obd.Event) error {
	return e.ingestBatch(records, events, nil)
}

// IngestBatchCtx is IngestBatch with provenance: every envelope of the
// batch is attributed to bc, so alarms raised by these records can
// report which ingest batch caused them and how long the path took.
// bc.Enqueue is stamped here, once, when the batch enters the shard
// queues — before the first channel send, so the channel's
// happens-before edge publishes the stamp to every consumer (a fast
// shard can start delivering while other shards' envelopes are still
// being enqueued). Producer blocking on a full queue therefore counts
// as queue wait. bc must not be mutated by the caller afterwards. A
// nil bc degrades to IngestBatch.
func (e *Engine) IngestBatchCtx(records []timeseries.Record, events []obd.Event, bc *obs.BatchCtx) error {
	return e.ingestBatch(records, events, bc)
}

func (e *Engine) ingestBatch(records []timeseries.Record, events []obd.Event, bc *obs.BatchCtx) error {
	if e.closed.Load() {
		return ErrClosed
	}
	if len(records) == 0 && len(events) == 0 {
		return nil
	}
	st, _ := e.stagePool.Get().(*ingestStage)
	if st == nil {
		st = &ingestStage{refs: make([][]uint32, len(e.shards))}
	}
	if !timeSorted(records, events) {
		st.recs, st.evs = sortMerged(records, events, st.recs[:0], st.evs[:0])
		records, events = st.recs, st.evs
	}
	e.stage(st, records, events)
	if bc != nil {
		// Stamped before the first channel send: consumers read
		// Enqueue through the channel's happens-before edge.
		bc.Enqueue = time.Now()
	}
	var refusal VehicleUnavailableError
	for i, refs := range st.refs {
		if len(refs) > 0 {
			e.enqueueStaged(e.shards[i], refs, records, events, bc, &refusal)
		}
	}
	if bc != nil {
		e.cfg.Observer.TracedBatch()
	}
	for i := range st.refs {
		st.refs[i] = st.refs[i][:0]
	}
	clear(st.recs)
	clear(st.evs)
	e.stagePool.Put(st)
	if refusal.Refused > 0 {
		err := refusal // only a refusal escapes
		return &err
	}
	return nil
}

// stage routes every item of time-sorted streams to its shard's run
// of references in merged order: chronological, events first on equal
// timestamps — the order core.Merged gives them.
func (e *Engine) stage(st *ingestStage, records []timeseries.Record, events []obd.Event) {
	var (
		i, j    int
		lastID  string
		shardIx = -1
	)
	for i < len(records) || j < len(events) {
		var id string
		var ref uint32
		if j < len(events) && (i == len(records) || !events[j].Time.After(records[i].Time)) {
			id, ref = events[j].VehicleID, uint32(j)<<1|1
			j++
		} else {
			id, ref = records[i].VehicleID, uint32(i)<<1
			i++
		}
		if shardIx < 0 || id != lastID {
			shardIx, lastID = e.shardFor(id).index, id
		}
		st.refs[shardIx] = append(st.refs[shardIx], ref)
	}
}

// timeSorted reports whether both streams are non-decreasing in time.
func timeSorted(records []timeseries.Record, events []obd.Event) bool {
	for i := 1; i < len(records); i++ {
		if records[i].Time.Before(records[i-1].Time) {
			return false
		}
	}
	for i := 1; i < len(events); i++ {
		if events[i].Time.Before(events[i-1].Time) {
			return false
		}
	}
	return true
}

// sortMerged appends unordered streams to recs and evs in core.Merged's
// order — a stable sort by time, events first on ties — so both copies
// come out time-sorted.
func sortMerged(records []timeseries.Record, events []obd.Event,
	recs []timeseries.Record, evs []obd.Event) ([]timeseries.Record, []obd.Event) {
	core.Merged("", records, events, //nolint:errcheck // callbacks never fail
		func(ev obd.Event) error { evs = append(evs, ev); return nil },
		func(r timeseries.Record) error { recs = append(recs, r); return nil })
	return recs, evs
}

// getBatch returns an empty batch for shard s: the shard's own free
// list first, then the shared pool. The free list is the steady-state
// path — every processed batch comes back through it — so the
// sync.Pool (whose per-P caches a cross-P producer misses, and whose
// victim cache each GC clears) only sees startup and overflow traffic.
// Either way the batch has room for BatchSize envelopes.
func (e *Engine) getBatch(s *shard) *batch {
	select {
	case b := <-s.free:
		return b
	default:
		return e.pool.Get().(*batch)
	}
}

// putBatch recycles a processed batch onto the shard's free list,
// overflowing into the shared pool when producers are not taking
// batches back fast enough (e.g. after a Replay finished). Only
// full-capacity batches are recycled — producers write envelopes into
// a batch's spare capacity in place — so a barrier-only batch is
// dropped.
func (e *Engine) putBatch(s *shard, b *batch) {
	if cap(b.envs) < e.cfg.BatchSize {
		return
	}
	b.reset()
	select {
	case s.free <- b:
	default:
		e.pool.Put(b)
	}
}

// enqueueStaged writes one shard's staged items into its pending batch
// under a single mutex acquisition, resolving each vehicle's slot on
// the way and sending batches into the queue as they fill — the
// blocking send is the backpressure point. When the shard has cordoned
// vehicles, their items are counted into refusal instead; the fence
// cannot change while mu is held, so per-vehicle admission is
// all-or-nothing.
func (e *Engine) enqueueStaged(s *shard, refs []uint32, records []timeseries.Record, events []obd.Event,
	bc *obs.BatchCtx, refusal *VehicleUnavailableError) {
	s.mu.Lock()
	fenced := s.cordonN.Load() != 0
	var (
		lastID  string
		n       uint32
		refused bool
		known   bool
	)
	for _, ref := range refs {
		var id string
		if ref&1 != 0 {
			id = events[ref>>1].VehicleID
		} else {
			id = records[ref>>1].VehicleID
		}
		b := s.pending
		if b == nil {
			b = e.getBatch(s)
			s.pending = b
		}
		if !known || id != lastID {
			known, lastID = true, id
			refused = fenced && refuse(s, id, refusal)
			if !refused {
				n = s.slotOf(id, b)
			}
		}
		if refused {
			refusal.Refused++
			continue
		}
		if bc != b.prov() {
			b.provs = append(b.provs, provRun{at: len(b.envs), bc: bc})
		}
		// Written in place: getBatch guarantees room for BatchSize.
		k := len(b.envs)
		b.envs = b.envs[:k+1]
		env := &b.envs[k]
		env.slot = n
		if ref&1 != 0 {
			b.events = append(b.events, events[ref>>1])
			env.ev = uint32(len(b.events))
			env.ns = 0
			env.vals = [obd.NumPIDs]float64{}
		} else {
			r := &records[ref>>1]
			env.ev = 0
			env.ns = r.Time.UnixNano()
			env.vals = r.Values
		}
		if k+1 >= e.cfg.BatchSize {
			s.pending = nil
			s.in <- b
		}
	}
	s.mu.Unlock()
}

// refuse reports whether a vehicle is fenced, noting the first refused
// vehicle in refusal. The caller holds s.mu.
func refuse(s *shard, id string, refusal *VehicleUnavailableError) bool {
	s.cordonMu.Lock()
	st, fenced := s.cordon[id]
	s.cordonMu.Unlock()
	if fenced && refusal.VehicleID == "" {
		refusal.VehicleID = id
		refusal.State = st
	}
	return fenced
}

// Flush pushes every shard's partially filled batch into its queue.
func (e *Engine) Flush() {
	for _, s := range e.shards {
		s.mu.Lock()
		if b := s.pending; b != nil && len(b.envs) > 0 {
			s.pending = nil
			s.in <- b
		}
		s.mu.Unlock()
	}
}

// replayChunk is how many records Replay hands IngestBatch per call:
// large enough to amortise the per-call staging and mutex work, small
// enough that every shard receives work early.
const replayChunk = 4096

// Replay feeds whole record and event streams through the engine in
// chronological order — events before same-timestamp records, exactly as
// core.RunVehicle merges them — and flushes. It is a loop over
// IngestBatch on consecutive chunks of the merged stream, so it may run
// alongside other producers (and live checkpoints) like any IngestBatch
// caller. Refused items of cordoned vehicles are summed into one
// *VehicleUnavailableError while the rest of the stream is admitted. It
// does not Close the engine, so streams can be replayed back to back.
func (e *Engine) Replay(records []timeseries.Record, events []obd.Event) error {
	if e.closed.Load() {
		return ErrClosed
	}
	if !timeSorted(records, events) {
		records, events = sortMerged(records, events, nil, nil)
	}
	var (
		refused VehicleUnavailableError
		vu      *VehicleUnavailableError
	)
	for r0, e0 := 0, 0; r0 < len(records) || e0 < len(events); {
		// A chunk ends just before record r1: it holds every event that
		// merges ahead of that record.
		r1, e1 := min(r0+replayChunk, len(records)), e0
		for e1 < len(events) && (r1 == len(records) || !events[e1].Time.After(records[r1].Time)) {
			e1++
		}
		err := e.IngestBatch(records[r0:r1], events[e0:e1])
		if errors.As(err, &vu) {
			if refused.VehicleID == "" {
				refused.VehicleID, refused.State = vu.VehicleID, vu.State
			}
			refused.Refused += vu.Refused
		} else if err != nil {
			return err
		}
		r0, e0 = r1, e1
	}
	e.Flush()
	if refused.Refused > 0 {
		return &refused
	}
	return nil
}

// Close flushes pending batches, stops every shard, closes the alarm
// channel and returns the first pipeline or configuration error the run
// encountered (nil on a clean run). Producers must have stopped
// ingesting before Close is called; Close only synchronises with the
// consumer side.
func (e *Engine) Close() error {
	if e.closed.Swap(true) {
		return e.Err()
	}
	e.Flush()
	for _, s := range e.shards {
		close(s.in)
	}
	e.wg.Wait()
	close(e.alarmCh)
	return e.Err()
}

// Err returns the first error recorded by any shard (sticky).
func (e *Engine) Err() error {
	e.errMu.Lock()
	defer e.errMu.Unlock()
	return e.err
}

func (e *Engine) setErr(err error) {
	e.errMu.Lock()
	if e.err == nil {
		e.err = err
	}
	e.errMu.Unlock()
}

// Stats snapshots the per-shard counters. Safe to call at any time from
// any goroutine.
//
// Consistency semantics: each counter is read atomically, but the
// group is not — a shard mid-batch may have counted a record in
// RecordsIn whose scored samples or alarms are not yet in
// SamplesScored/Alarms, and different shards are read at slightly
// different instants. Totals are exact once the engine is closed (or
// quiesced). Use StatsConsistent for a cross-counter-consistent cut of
// a live engine.
func (e *Engine) Stats() EngineStats {
	st := EngineStats{Shards: make([]ShardStats, len(e.shards))}
	for i, s := range e.shards {
		ss := ShardStats{
			Shard:         i,
			Vehicles:      int(s.vehicles.Load()),
			RecordsIn:     s.recordsIn.Load(),
			EventsIn:      s.eventsIn.Load(),
			SamplesScored: s.scored.Load(),
			Alarms:        s.alarms.Load(),
			Drops:         s.drops.Load(),
		}
		st.Shards[i] = ss
		st.Vehicles += ss.Vehicles
		st.RecordsIn += ss.RecordsIn
		st.EventsIn += ss.EventsIn
		st.SamplesScored += ss.SamplesScored
		st.Alarms += ss.Alarms
		st.Drops += ss.Drops
	}
	return st
}

// StatsConsistent snapshots the per-shard counters at a batch
// boundary: it reuses the checkpoint barrier to park every shard
// between batches, reads the counters while nothing is in flight, and
// releases the fleet. The returned stats are therefore a consistent
// cut — every ingested element is either fully reflected (record,
// derived samples, alarms) or not at all.
//
// It shares the live-checkpoint restrictions: do not call it
// concurrently with Close, and keep draining Alarms() while it runs
// when DropAlarms is unset. On a closed engine it is plain Stats
// (already exact). Cost is one fleet quiesce — micro to milliseconds —
// so prefer Stats for dashboards polling at high rates.
func (e *Engine) StatsConsistent() EngineStats {
	if e.closed.Load() {
		return e.Stats()
	}
	release := e.quiesce()
	st := e.Stats()
	release()
	return st
}

// quiesce parks every shard goroutine at a batch boundary and blocks
// producers on the ingest mutexes. It returns the release function;
// between quiesce and release the caller is the only goroutine
// touching handler state. Callers must obey the live-checkpoint
// restrictions (no concurrent Close, alarms drained).
func (e *Engine) quiesce() (release func()) {
	for _, s := range e.shards {
		s.mu.Lock()
	}
	bar := &barrier{resume: make(chan struct{})}
	bar.ack.Add(len(e.shards))
	for _, s := range e.shards {
		postBarrier(s, bar)
	}
	// Every shard drains its queue up to the barrier, then parks.
	bar.ack.Wait()
	return func() {
		close(bar.resume)
		for _, s := range e.shards {
			s.mu.Unlock()
		}
	}
}

// postBarrier sends bar to the shard on its pending batch (or on a
// batch of its own), so the shard parks once everything admitted so
// far is processed. The caller holds s.mu.
func postBarrier(s *shard, bar *barrier) {
	b := s.pending
	s.pending = nil
	if b == nil {
		b = &batch{}
	}
	b.bar = bar
	s.in <- b
}

// Pipelines calls fn for every core.Pipeline the engine has built, shard
// by shard (handlers of other types are skipped). It must only be used
// after Close: handlers are owned by shard goroutines while the engine
// runs.
func (e *Engine) Pipelines(fn func(*core.Pipeline)) {
	e.Handlers(func(_ string, h Handler) {
		if p, ok := h.(*core.Pipeline); ok {
			fn(p)
		}
	})
}

// Handlers calls fn for every handler the engine has built, shard by
// shard. Same ownership contract as Pipelines: only after Close.
func (e *Engine) Handlers(fn func(vehicleID string, h Handler)) {
	for _, s := range e.shards {
		for i := range s.slots {
			if sl := &s.slots[i]; sl.h != nil {
				fn(sl.id, sl.h)
			}
		}
	}
}

// fitResult is an asynchronous fit completion, delivered back to the
// owning shard goroutine.
type fitResult struct {
	slot uint32
	err  error
}

// maxDrainBatches bounds how many already-queued batches a shard
// processes per wakeup before re-checking fitDone and the stop signal.
const maxDrainBatches = 8

// run is the shard loop: the lock-free hot path. It exclusively owns
// s.slots, so pipeline calls need no synchronisation; asynchronous fit
// completions re-enter the loop through s.fitDone and are therefore
// landed by the same goroutine that owns the handler.
//
// Two receive paths keep channel overhead off the throughput-bound
// profile: while no fit is in flight nothing can arrive on fitDone, so
// the loop blocks on a plain channel receive instead of a two-case
// select; and after each processed batch it opportunistically drains up
// to maxDrainBatches more batches that are already queued, so a shard
// running behind its producers stays on-CPU instead of parking and
// re-waking per batch.
func (e *Engine) run(s *shard) {
	defer e.wg.Done()
	for {
		var b *batch
		var ok bool
		if s.busy == 0 {
			b, ok = <-s.in
		} else {
			select {
			case b, ok = <-s.in:
			case res := <-s.fitDone:
				e.finishFit(s, res)
				continue
			}
		}
		if !ok {
			e.drainFits(s)
			return
		}
		e.runBatch(s, b)
	drain:
		for n := 0; n < maxDrainBatches && s.busy == 0; n++ {
			select {
			case b, ok = <-s.in:
				if !ok {
					e.drainFits(s)
					return
				}
				e.runBatch(s, b)
			default:
				break drain
			}
		}
	}
}

func (e *Engine) runBatch(s *shard, b *batch) {
	var batchStart time.Time
	if e.batchH != nil {
		batchStart = time.Now()
	}
	for _, id := range b.names {
		s.slots = append(s.slots, slot{id: id})
	}
	e.process(s, b)
	if b.bar != nil {
		// Checkpoint barrier: a checkpoint must observe fully settled
		// handler state, so in-flight fits are drained (replaying their
		// parked envelopes) before the shard acknowledges and parks at
		// this batch boundary. Barrier batches spend their time parked
		// waiting on the checkpointer; recording that wait would drown
		// the latency histogram.
		e.drainFits(s)
		b.bar.ack.Done()
		<-b.bar.resume
	} else if e.batchH != nil {
		e.batchH.Observe(time.Since(batchStart).Seconds())
	}
	e.putBatch(s, b)
}

// process routes a batch's envelopes in order: an envelope whose
// vehicle has a fit in flight is parked (preserving arrival order), the
// rest are delivered.
func (e *Engine) process(s *shard, b *batch) {
	var prov *obs.BatchCtx
	run := 0
	for i := range b.envs {
		if run < len(b.provs) && b.provs[run].at == i {
			prov = b.provs[run].bc
			run++
		}
		env := &b.envs[i]
		// busy is zero except while a fit is in flight, which keeps the
		// parking check off the common path.
		if s.busy != 0 {
			if p := s.slots[env.slot].parked; p != nil {
				p.park(env, b.events, prov)
				continue
			}
		}
		e.deliver(s, env, b.events, prov)
	}
}

// deliver feeds one envelope to its vehicle's handler and, when the
// handler raised a deferred fit, launches the fit on a fitpool worker
// and parks the vehicle.
func (e *Engine) deliver(s *shard, env *envelope, events []obd.Event, prov *obs.BatchCtx) {
	if env.ev != 0 {
		s.eventsIn.Add(1)
		if sl := e.handlerFor(s, env.slot); sl != nil {
			sl.h.HandleEvent(events[env.ev-1])
		}
		return
	}
	s.recordsIn.Add(1)
	sl := e.handlerFor(s, env.slot)
	if sl == nil {
		return
	}
	if prov != nil {
		if prov != s.lastProv {
			// First envelope of a new traced frame on this shard: one
			// clock read covers the whole frame's dequeue time, and the
			// frame's queue wait is observed once.
			s.lastProv = prov
			s.lastDequeue = time.Now()
			s.sawProv = true
			e.cfg.Observer.ObserveQueueWait(s.lastDequeue.Sub(prov.Enqueue))
		}
		if sl.ps != nil {
			sl.ps.SetProvenance(prov, s.lastDequeue)
		}
	} else if s.sawProv && sl.ps != nil {
		// A shard that has ever delivered traced records must clear a
		// handler's provenance before untraced ones, or an untraced
		// record's alarm would inherit the previous frame's context.
		// Shards that never saw provenance never take this branch, so
		// Replay-only runs keep the bare hot path.
		sl.ps.SetProvenance(nil, time.Time{})
	}
	h := sl.h
	before := h.ScoredSamples()
	alarms, err := h.HandleRecord(timeseries.Record{VehicleID: sl.id, Time: time.Unix(0, env.ns).UTC(), Values: env.vals})
	s.scored.Add(h.ScoredSamples() - before)
	if err != nil {
		e.failVehicle(s, env.slot, err)
		return
	}
	for _, a := range alarms {
		if e.cfg.DropAlarms {
			select {
			case e.alarmCh <- a:
				s.alarms.Add(1)
			default:
				s.drops.Add(1)
			}
		} else {
			e.alarmCh <- a
			s.alarms.Add(1)
		}
	}
	if sl.fd == nil {
		return
	}
	fit := sl.fd.TakePendingFit()
	if fit == nil {
		return
	}
	// In flight: the vehicle's envelopes park until the fit lands.
	if n := len(s.parks); n > 0 {
		sl.parked, s.parks = s.parks[n-1], s.parks[:n-1]
	} else {
		sl.parked = &batch{}
	}
	s.busy++
	n := env.slot
	go func() {
		fitpool.Acquire()
		err := fit()
		fitpool.Release()
		s.fitDone <- fitResult{slot: n, err: err}
	}()
}

// failVehicle drops a vehicle after a handler error, exactly as the
// synchronous path always has: record the error, forget the handler,
// skip the vehicle's future envelopes.
func (e *Engine) failVehicle(s *shard, n uint32, err error) {
	sl := &s.slots[n]
	e.setErr(fmt.Errorf("fleet: vehicle %s: %w", sl.id, err))
	sl.h, sl.ps, sl.fd, sl.skip = nil, nil, nil, true
	s.vehicles.Add(-1)
}

// finishFit lands one asynchronous fit completion: a failed fit drops
// the vehicle like an inline fit error would, and either way the
// envelopes parked during the fit replay in arrival order. A replayed
// envelope may raise the vehicle's next fit, re-parking the remainder
// into a fresh parking batch.
func (e *Engine) finishFit(s *shard, res fitResult) {
	sl := &s.slots[res.slot]
	parked := sl.parked
	sl.parked = nil
	s.busy--
	if res.err != nil {
		e.failVehicle(s, res.slot, res.err)
	}
	e.process(s, parked)
	parked.reset()
	s.parks = append(s.parks, parked)
}

// drainFits blocks until the shard has no fit in flight, landing each
// completion (and its parked replay) as it arrives.
func (e *Engine) drainFits(s *shard) {
	for s.busy > 0 {
		e.finishFit(s, <-s.fitDone)
	}
}

// handlerFor returns a vehicle's slot with its handler, building the
// handler on first contact. Skipped and previously failed vehicles
// return nil.
func (e *Engine) handlerFor(s *shard, n uint32) *slot {
	sl := &s.slots[n]
	if sl.h != nil {
		return sl
	}
	if sl.skip {
		return nil
	}
	// Note the build path deliberately has no cordon check: an envelope
	// only reaches the shard goroutine if it was admitted before the
	// vehicle's fence went up (the fence is set under the ingest mutex),
	// and such envelopes are flushed ahead of any extraction barrier —
	// so building a first handler here is always legitimate, and an
	// extracted vehicle can never be re-warmed through this path.
	h, err := e.buildHandler(sl.id)
	if err != nil {
		if !errors.Is(err, ErrSkipVehicle) {
			e.setErr(fmt.Errorf("fleet: configure vehicle %s: %w", sl.id, err))
		}
		sl.skip = true
		return nil
	}
	e.install(s, sl, h)
	return sl
}

// install makes h the live handler of a slot, caching its optional
// interfaces.
func (e *Engine) install(s *shard, sl *slot, h Handler) {
	sl.h = h
	sl.ps, _ = h.(ProvenanceSink)
	sl.fd = nil
	if !e.cfg.SyncFits {
		sl.fd, _ = h.(FitDeferrer)
	}
	s.vehicles.Add(1)
}

// buildHandler constructs a vehicle's handler through whichever factory
// the config provides, enabling deferred fits on handlers that support
// them unless SyncFits pins the engine to inline fitting. Checkpoint
// restore also builds handlers here, so a restored fleet inherits the
// same fit mode.
func (e *Engine) buildHandler(vehicleID string) (Handler, error) {
	h, err := e.newHandler(vehicleID)
	if err != nil {
		return nil, err
	}
	if !e.cfg.SyncFits {
		if fd, ok := h.(FitDeferrer); ok {
			fd.SetDeferFits(true)
		}
	}
	return h, nil
}

func (e *Engine) newHandler(vehicleID string) (Handler, error) {
	if e.cfg.NewHandler != nil {
		h, err := e.cfg.NewHandler(vehicleID)
		if err != nil {
			return nil, err
		}
		if h == nil {
			return nil, errors.New("fleet: NewHandler returned nil handler")
		}
		return h, nil
	}
	cfg, err := e.cfg.NewConfig(vehicleID)
	if err != nil {
		return nil, err
	}
	return core.NewPipeline(vehicleID, cfg)
}
