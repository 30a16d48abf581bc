package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"syscall"
	"time"

	"github.com/navarchos/pdm"
	"github.com/navarchos/pdm/internal/detector"
	"github.com/navarchos/pdm/internal/fleetsim"
	"github.com/navarchos/pdm/internal/obd"
	"github.com/navarchos/pdm/internal/timeseries"
)

// Workload shapes. Both serve workloads run the server at -factor 5,
// which journals enough alarms per pass for a p99.
const (
	serveFactor = 5

	bulkFrameItems    = 512
	bulkFramesPerPost = 32

	liveFrameItems = 64
	// liveRate is serve-live's offered load in items (records plus
	// the rare events) per second, split evenly over the connections:
	// about 11 % of each connection's time at the unloaded request
	// round trip, so the open loop measures the server, not a queue
	// the load itself built.
	liveRate = 40_000
	// liveWarmDays of the wide fleet are sent closed-loop before the
	// measured phase; the remaining 14 days take 30 s at liveRate.
	liveWarmDays = 21
	// liveSetups is how many extra start/stop cycles serve-live makes
	// before its measured server, so setup_s is a median.
	liveSetups = 25
	// maxLatenessMs is the generator-lateness p99 above which a
	// serve-live run is invalid: the load generator, not the server,
	// missed the schedule.
	maxLatenessMs = 10
)

// servePipeline is the per-vehicle configuration navarchos-serve
// hard-codes — correlation transform, closest-pair detection,
// self-tuning thresholds — rebuilt through the public pdm API. The
// output checks compare the server's alarms with an in-process replay
// under this configuration, so the two cannot drift apart unseen. wrap,
// when non-nil, instruments each vehicle's components (traced runs).
func servePipeline(observer *pdm.Observer, wrap *layers) func(string) (pdm.PipelineConfig, error) {
	return func(string) (pdm.PipelineConfig, error) {
		tr, err := pdm.NewTransformer(pdm.Correlation, 12)
		if err != nil {
			return pdm.PipelineConfig{}, err
		}
		det := pdm.NewClosestPair(tr.FeatureNames())
		th := pdm.NewSelfTuningThreshold(serveFactor)
		wf := timeseries.NewWarmupFilter(5, 20*time.Minute)
		cfg := pdm.PipelineConfig{
			Transformer:   tr,
			Detector:      det,
			Thresholder:   th,
			ProfileLength: 45,
			Filter:        wf.Keep,
			FilterState:   wf,
			DensityM:      5,
			DensityK:      15,
			Observer:      observer,
		}
		if wrap != nil {
			cfg.Transformer = wrap.transformer(tr)
			cfg.Detector = wrap.detector(det)
			cfg.Thresholder = wrap.thresholder(th)
			cfg.Filter = wrap.filter(wf.Keep)
		}
		return cfg, nil
	}
}

// alarmKey is the part of an alarm the output checks compare, floats
// by bit pattern.
type alarmKey struct {
	vehicle   string
	time      int64
	channel   int
	feature   string
	score     uint64
	threshold uint64
}

func keyOf(a detector.Alarm) alarmKey {
	return alarmKey{a.VehicleID, a.Time.UnixNano(), a.Channel, a.Feature,
		math.Float64bits(a.Score), math.Float64bits(a.Threshold)}
}

func sortKeys(ks []alarmKey) {
	sort.Slice(ks, func(i, j int) bool {
		a, b := ks[i], ks[j]
		if a.vehicle != b.vehicle {
			return a.vehicle < b.vehicle
		}
		if a.time != b.time {
			return a.time < b.time
		}
		return a.channel < b.channel
	})
}

// compareAlarms reports the first difference between two sorted alarm
// lists, or nil when they are bit-identical.
func compareAlarms(what string, got, want []alarmKey) error {
	for i := 0; i < len(got) && i < len(want); i++ {
		if got[i] != want[i] {
			return checkErrorf("%s: alarm %d differs: got %+v, want %+v", what, i, got[i], want[i])
		}
	}
	if len(got) != len(want) {
		return checkErrorf("%s: %d alarms, want %d", what, len(got), len(want))
	}
	return nil
}

// replayAlarms runs the streams through an in-process Engine.Replay
// under the serve configuration and returns the sorted alarms.
func replayAlarms(records []timeseries.Record, events []obd.Event, shards int) ([]alarmKey, error) {
	eng, err := pdm.NewFleetEngine(pdm.FleetEngineConfig{
		NewConfig: servePipeline(nil, nil),
		Shards:    shards,
	})
	if err != nil {
		return nil, err
	}
	var keys []alarmKey
	done := make(chan struct{})
	go func() {
		defer close(done)
		for a := range eng.Alarms() {
			keys = append(keys, keyOf(a))
		}
	}()
	rerr := eng.Replay(records, events)
	cerr := eng.Close()
	<-done
	if rerr != nil {
		return nil, rerr
	}
	if cerr != nil {
		return nil, cerr
	}
	sortKeys(keys)
	return keys, nil
}

// journalEntry is the slice of one -journal JSON line the checks and
// latency metrics read.
type journalEntry struct {
	Time        time.Time `json:"time"`
	VehicleID   string    `json:"vehicle"`
	Feature     string    `json:"feature"`
	Channel     int       `json:"channel"`
	Score       float64   `json:"score"`
	Threshold   float64   `json:"threshold"`
	TraceID     uint64    `json:"trace_id"`
	ArrivalTime time.Time `json:"arrival_time"`
	E2ELatencyS float64   `json:"e2e_latency_s"`
}

// emitted is when the alarm was raised: its frame's arrival plus the
// ingest-to-alarm latency the server measured.
func (e *journalEntry) emitted() time.Time {
	return e.ArrivalTime.Add(time.Duration(e.E2ELatencyS * 1e9))
}

func (e *journalEntry) key() alarmKey {
	return keyOf(detector.Alarm{VehicleID: e.VehicleID, Time: e.Time, Channel: e.Channel,
		Feature: e.Feature, Score: e.Score, Threshold: e.Threshold})
}

func readJournal(path string) ([]journalEntry, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []journalEntry
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		var e journalEntry
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			return nil, fmt.Errorf("journal %s: %w", path, err)
		}
		out = append(out, e)
	}
	return out, sc.Err()
}

// checkJournal compares a server's journaled alarms with the replay
// reference and returns the entries.
func checkJournal(what, path string, want []alarmKey) ([]journalEntry, error) {
	entries, err := readJournal(path)
	if err != nil {
		return nil, err
	}
	got := make([]alarmKey, len(entries))
	for i := range entries {
		got[i] = entries[i].key()
	}
	sortKeys(got)
	return entries, compareAlarms(what, got, want)
}

// frameReader serves a request body of whole frames and stamps the
// moment each frame's first byte is handed to the connection.
type frameReader struct {
	data   []byte
	pos    int
	starts []int       // frame offsets, relative to data
	sent   []time.Time // one per frame
	next   int
}

func (r *frameReader) Read(p []byte) (int, error) {
	if r.pos >= len(r.data) {
		return 0, io.EOF
	}
	n := copy(p, r.data[r.pos:])
	if r.next < len(r.starts) && r.starts[r.next] < r.pos+n {
		now := time.Now()
		for r.next < len(r.starts) && r.starts[r.next] < r.pos+n {
			r.sent[r.next] = now
			r.next++
		}
	}
	r.pos += n
	return n, nil
}

// post sends one NVWIRE1 body to /ingest/stream and reports whether
// the server accepted it.
func post(client *http.Client, base string, body io.Reader, n int) (bool, error) {
	req, err := http.NewRequest(http.MethodPost, base+"/ingest/stream", body)
	if err != nil {
		return false, err
	}
	req.ContentLength = int64(n)
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := client.Do(req)
	if err != nil {
		return false, nil
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK, nil
}

// loadClient is one load connection: at most one request in flight,
// one TCP connection.
func loadClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}}
}

// serveInput is a serve workload's generated input.
type serveInput struct {
	fleet    *fleetsim.Fleet
	vehicles int
	// warm holds serve-live's warm-up streams: the fleet's first days,
	// sent closed-loop and untimed before the measured phase so every
	// vehicle starts it with a fitted profile. nil for serve-bulk.
	warm                    []connStream
	warmRecords, warmEvents int
	// streams are the measured phase's streams, and sent how many
	// frames of each a run sends.
	streams                 []connStream
	sent                    []int
	records, events, frames int
}

// newServeInput partitions the fleet over conns connections and
// encodes it; items before warmUntil, when it is set, form the warm-up
// streams.
func newServeInput(f *fleetsim.Fleet, conns, perFrame int, warmUntil time.Time) (*serveInput, error) {
	part := partition(f, conns)
	in := &serveInput{fleet: f, vehicles: len(f.Vehicles)}
	var err error
	if !warmUntil.IsZero() {
		in.warm, err = buildStreams(f, part, conns, bulkFrameItems, false, func(t time.Time) bool { return t.Before(warmUntil) })
		if err != nil {
			return nil, err
		}
		for _, s := range in.warm {
			for _, fr := range s.frames {
				in.warmRecords += fr.records
				in.warmEvents += fr.events
			}
		}
	}
	in.streams, err = buildStreams(f, part, conns, perFrame, true, func(t time.Time) bool { return !t.Before(warmUntil) })
	if err != nil {
		return nil, err
	}
	in.sent = make([]int, conns)
	for c, s := range in.streams {
		in.sent[c] = len(s.frames)
	}
	in.count()
	return in, nil
}

// count totals the frames, records and events the measured phase
// sends.
func (in *serveInput) count() {
	in.records, in.events, in.frames = 0, 0, 0
	for c, s := range in.streams {
		for _, fr := range s.frames[:in.sent[c]] {
			in.records += fr.records
			in.events += fr.events
			in.frames++
		}
	}
}

func (in *serveInput) sizes(rate float64) inputSizes {
	return inputSizes{
		Vehicles:    in.vehicles,
		Records:     in.records,
		Events:      in.events,
		Frames:      in.frames,
		Connections: len(in.streams),
		OfferedRate: rate,
		WarmRecords: in.warmRecords,
	}
}

// reference replays exactly the streams a run sends, warm-up included.
func (in *serveInput) reference(o *options) ([]alarmKey, error) {
	recs, evs := in.fleet.Records, in.fleet.Events
	if in.warmRecords+in.records != len(recs) || in.warmEvents+in.events != len(evs) {
		items := sentItems(in.streams, in.sent)
		for c, s := range in.warm {
			for _, fr := range s.frames {
				items[c] += fr.items()
			}
		}
		var err error
		if recs, evs, err = sentPrefix(in.fleet, len(in.streams), items); err != nil {
			return nil, err
		}
	}
	return replayAlarms(recs, evs, o.nproc)
}

// release moves the encoded frames out of the Go heap and drops the
// generated fleet, once the reference replay has run, so that the
// heap of a traced in-process run — and with it the GC's pacing —
// holds the engine's state, not the benchmark's inputs, as in the
// server. The mappings live as long as the process.
func (in *serveInput) release() error {
	for _, streams := range [][]connStream{in.warm, in.streams} {
		for c := range streams {
			s := &streams[c]
			m, err := syscall.Mmap(-1, 0, len(s.buf), syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
			if err != nil {
				return fmt.Errorf("map frame buffer: %w", err)
			}
			copy(m, s.buf)
			s.buf = m
		}
	}
	in.fleet = nil
	runtime.GC()
	debug.FreeOSMemory()
	return nil
}

// posts groups a stream's frames into request bodies of perPost frames.
func posts(frames []frame, perPost int) [][]frame {
	var out [][]frame
	for len(frames) > 0 {
		n := min(perPost, len(frames))
		out = append(out, frames[:n])
		frames = frames[n:]
	}
	return out
}

// sendClosedLoop sends every frame of streams, one load connection per
// stream, bulkFramesPerPost frames per request, each connection sending
// its next request when the last returns. It returns every request's
// latency and the number refused; sent, when non-nil, receives the
// moment each frame's first byte left.
func sendClosedLoop(base string, streams []connStream, sent [][]time.Time) ([]float64, int, error) {
	lat := make([][]float64, len(streams))
	fails := make([]int, len(streams))
	errs := make([]error, len(streams))
	var wg sync.WaitGroup
	for c := range streams {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			client := loadClient()
			defer client.CloseIdleConnections()
			s := &streams[c]
			first := 0
			for _, group := range posts(s.frames, bulkFramesPerPost) {
				base0 := group[0].off
				r := &frameReader{data: s.buf[base0:group[len(group)-1].end]}
				if sent != nil {
					r.sent = sent[c][first : first+len(group)]
					for _, fr := range group {
						r.starts = append(r.starts, fr.off-base0)
					}
				}
				first += len(group)
				t := time.Now()
				ok, err := post(client, base, r, len(r.data))
				if err != nil {
					errs[c] = err
					return
				}
				lat[c] = append(lat[c], float64(time.Since(t).Nanoseconds())/1e6)
				if !ok {
					fails[c]++
				}
			}
		}(c)
	}
	wg.Wait()
	var all []float64
	failed := 0
	for c := range streams {
		if errs[c] != nil {
			return nil, 0, errs[c]
		}
		all = append(all, lat[c]...)
		failed += fails[c]
	}
	return all, failed, nil
}

// bulkPass is one serve-bulk pass against a fresh server.
type bulkPass struct {
	setup, wall, rssMB float64
	requestMs          []float64
	alarmMs            []float64
}

// runBulkPass starts a server, streams the whole fleet closed-loop and
// waits until GET /fleet shows every record processed.
func runBulkPass(o *options, rep *report, in *serveInput, want []alarmKey) (*bulkPass, error) {
	srv, err := startServer(o)
	if err != nil {
		return nil, err
	}
	defer srv.kill()
	p := &bulkPass{setup: srv.setup.Seconds()}
	sent := make([][]time.Time, len(in.streams))
	for c, s := range in.streams {
		sent[c] = make([]time.Time, len(s.frames))
	}
	start := time.Now()
	lat, failed, err := sendClosedLoop(srv.base, in.streams, sent)
	if err != nil {
		return nil, err
	}
	rep.attempted += len(lat)
	rep.failed += failed
	if failed > 0 {
		return nil, checkErrorf("serve-bulk: %d of %d requests refused", failed, len(lat))
	}
	p.requestMs = lat
	done, err := srv.waitProcessed(in.records, in.events)
	if err != nil {
		return nil, err
	}
	p.wall = done.Sub(start).Seconds()
	if p.rssMB, err = srv.peakRSSMB(); err != nil {
		return nil, err
	}
	if err := srv.stop(); err != nil {
		return nil, err
	}
	entries, err := checkJournal("serve-bulk journal vs replay", srv.journal, want)
	if err != nil {
		return nil, err
	}
	for i := range entries {
		c, f := traceFrame(entries[i].TraceID)
		if c < 0 || c >= len(sent) || f < 0 || f >= len(sent[c]) {
			return nil, checkErrorf("alarm with unknown trace id %#x", entries[i].TraceID)
		}
		p.alarmMs = append(p.alarmMs, float64(entries[i].emitted().Sub(sent[c][f]).Nanoseconds())/1e6)
	}
	os.Remove(srv.journal)
	return p, nil
}

func runServeBulk(o *options, rep *report) error {
	in, err := newServeInput(benchFleet(o.seed), o.nproc, bulkFrameItems, time.Time{})
	if err != nil {
		return err
	}
	printHeader(o, in.sizes(0))
	want, err := in.reference(o)
	if err != nil {
		return err
	}
	fmt.Printf("reference replay: %d alarms\n", len(want))
	if err := in.release(); err != nil {
		return err
	}
	if o.trace {
		return runServeTraced(o, rep, in, want, bulkFramesPerPost)
	}
	var setup, wall, rss, reqMs, alarmMs []float64
	start := time.Now()
	for time.Since(start) < o.seconds {
		p, err := runBulkPass(o, rep, in, want)
		if err != nil {
			return err
		}
		setup = append(setup, p.setup)
		wall = append(wall, p.wall)
		rss = append(rss, p.rssMB)
		reqMs = append(reqMs, p.requestMs...)
		alarmMs = append(alarmMs, p.alarmMs...)
	}
	rps := make([]float64, len(wall))
	for i, w := range wall {
		rps[i] = float64(in.records) / w
	}
	fmt.Printf("serve-bulk: %d passes, %d alarms journaled per pass, identical to replay\n", len(wall), len(want))
	rep.set("setup_s", median(setup), "s", len(setup))
	rep.set("peak_rss_mb", median(rss), "MiB", len(rss))
	rep.set("records_per_s", median(rps), "rec/s", len(rps))
	rep.set("wall_s", median(wall), "s", len(wall))
	setLatencies(rep, reqMs, alarmMs)
	return nil
}

// liveSchedule returns, per stream, each frame's due offset from the
// start of the measured phase: frames leave each connection at
// liveRate/conns items per second. It also sets in.sent to the frames
// due within the run.
func liveSchedule(in *serveInput, seconds time.Duration) [][]time.Duration {
	perConn := float64(liveRate) / float64(len(in.streams))
	due := make([][]time.Duration, len(in.streams))
	for c, s := range in.streams {
		items := 0
		for _, fr := range s.frames {
			d := time.Duration(float64(items) / perConn * 1e9)
			if d >= seconds {
				break
			}
			due[c] = append(due[c], d)
			items += fr.items()
		}
		in.sent[c] = len(due[c])
	}
	in.count()
	return due
}

// liveFleetInput is serve-live's input: the wide fleet, its first
// liveWarmDays days as warm-up.
func liveFleetInput(o *options) (*serveInput, error) {
	f := wideFleet(o.seed)
	warmUntil := f.Records[0].Time.Truncate(24*time.Hour).AddDate(0, 0, liveWarmDays)
	return newServeInput(f, o.nproc, liveFrameItems, warmUntil)
}

func runServeLive(o *options, rep *report) error {
	in, err := liveFleetInput(o)
	if err != nil {
		return err
	}
	due := liveSchedule(in, o.seconds)
	printHeader(o, in.sizes(liveRate))
	want, err := in.reference(o)
	if err != nil {
		return err
	}
	fmt.Printf("reference replay: %d alarms\n", len(want))
	if err := in.release(); err != nil {
		return err
	}
	if o.trace {
		return runServeTraced(o, rep, in, want, 1)
	}

	var setup []float64
	for i := 0; i < liveSetups; i++ {
		srv, err := startServer(o)
		if err != nil {
			return err
		}
		setup = append(setup, srv.setup.Seconds())
		// Killed, not interrupted: navarchos-serve answers HTTP before it
		// installs its SIGINT handler, so an interrupt this soon after
		// start-up can find the default handler. Nothing was ingested.
		srv.kill()
		os.Remove(srv.journal)
	}
	srv, err := startServer(o)
	if err != nil {
		return err
	}
	defer srv.kill()
	setup = append(setup, srv.setup.Seconds())

	warmLat, failed, err := sendClosedLoop(srv.base, in.warm, nil)
	if err != nil {
		return err
	}
	rep.attempted += len(warmLat)
	rep.failed += failed
	if failed > 0 {
		return checkErrorf("serve-live warm-up: %d of %d requests refused", failed, len(warmLat))
	}
	if _, err := srv.waitProcessed(in.warmRecords, in.warmEvents); err != nil {
		return err
	}

	conns := len(in.streams)
	reqMs := make([][]float64, conns)
	svcMs := make([][]float64, conns)
	lateMs := make([][]float64, conns)
	fails := make([]int, conns)
	errs := make([]error, conns)
	var wg sync.WaitGroup
	start := time.Now().Add(20 * time.Millisecond)
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			client := loadClient()
			defer client.CloseIdleConnections()
			sl, err := newSleeper()
			if err != nil {
				errs[c] = err
				return
			}
			defer sl.close()
			s := &in.streams[c]
			free := start
			for i, d := range due[c] {
				at := start.Add(d)
				if err := sl.until(at); err != nil {
					errs[c] = err
					return
				}
				sendAt := time.Now()
				ready := at
				if free.After(ready) {
					ready = free
				}
				lateMs[c] = append(lateMs[c], float64(sendAt.Sub(ready).Nanoseconds())/1e6)
				fr := s.frames[i]
				ok, err := post(client, srv.base, bytes.NewReader(s.buf[fr.off:fr.end]), fr.end-fr.off)
				if err != nil {
					errs[c] = err
					return
				}
				free = time.Now()
				reqMs[c] = append(reqMs[c], float64(free.Sub(at).Nanoseconds())/1e6)
				svcMs[c] = append(svcMs[c], float64(free.Sub(sendAt).Nanoseconds())/1e6)
				if !ok {
					fails[c]++
				}
			}
		}(c)
	}
	wg.Wait()
	var allReq, allSvc, allLate []float64
	failed = 0
	for c := 0; c < conns; c++ {
		if errs[c] != nil {
			return errs[c]
		}
		allReq = append(allReq, reqMs[c]...)
		allSvc = append(allSvc, svcMs[c]...)
		allLate = append(allLate, lateMs[c]...)
		failed += fails[c]
	}
	rep.attempted += len(allReq)
	rep.failed += failed
	if failed > 0 {
		return checkErrorf("serve-live: %d of %d requests refused", failed, len(allReq))
	}
	done, err := srv.waitProcessed(in.warmRecords+in.records, in.warmEvents+in.events)
	if err != nil {
		return err
	}
	wall := done.Sub(start).Seconds()
	rss, err := srv.peakRSSMB()
	if err != nil {
		return err
	}
	if err := srv.stop(); err != nil {
		return err
	}
	entries, err := checkJournal("serve-live journal vs replay", srv.journal, want)
	if err != nil {
		return err
	}
	alarmMs := make([]float64, 0, len(entries))
	for i := range entries {
		if entries[i].TraceID == 0 {
			continue // raised during the untraced warm-up
		}
		c, f := traceFrame(entries[i].TraceID)
		if c < 0 || c >= conns || f < 0 || f >= len(due[c]) {
			return checkErrorf("alarm with unknown trace id %#x", entries[i].TraceID)
		}
		alarmMs = append(alarmMs, float64(entries[i].emitted().Sub(start.Add(due[c][f])).Nanoseconds())/1e6)
	}
	lateP99, lateMax := quantile(allLate, 0.99), quantile(allLate, 1)
	fmt.Printf("serve-live: generator lateness p50 %.3f ms, p99 %.3f ms, max %.3f ms over %d frames; send to response p50 %.3f ms, p99 %.3f ms\n",
		quantile(allLate, 0.5), lateP99, lateMax, len(allLate), quantile(allSvc, 0.5), quantile(allSvc, 0.99))
	fmt.Printf("serve-live: %d alarms identical to replay, %d in the measured phase\n", len(entries), len(alarmMs))
	if lateP99 > maxLatenessMs {
		return checkErrorf("serve-live: invalid run: generator lateness p99 %.3f ms exceeds %d ms", lateP99, maxLatenessMs)
	}
	rep.set("setup_s", median(setup), "s", len(setup))
	rep.set("peak_rss_mb", rss, "MiB", 1)
	rep.set("records_per_s", float64(in.records)/wall, "rec/s", in.records)
	rep.set("wall_s", wall, "s", 1)
	setLatencies(rep, allReq, alarmMs)
	return nil
}
