package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"strings"
	"testing"
	"time"
	"unsafe"

	"github.com/navarchos/pdm/internal/obd"
	"github.com/navarchos/pdm/internal/timeseries"
)

// testStream builds a deterministic mixed stream: nrecs records across
// nveh vehicles (one per minute, round-robin) and one event per 97
// records, with awkward float values (negative zero, tiny subnormals,
// NaN payloads are excluded — records never carry NaN) to exercise
// bit-exactness.
func testStream(nrecs, nveh int) ([]timeseries.Record, []obd.Event) {
	base := time.Date(2023, 3, 1, 8, 0, 0, 0, time.UTC)
	recs := make([]timeseries.Record, 0, nrecs)
	var evs []obd.Event
	x := uint64(12345)
	next := func() float64 {
		x = x*6364136223846793005 + 1442695040888963407
		return float64(int64(x>>12)) / float64(1<<20)
	}
	for i := 0; i < nrecs; i++ {
		var r timeseries.Record
		r.VehicleID = vehID(i % nveh)
		r.Time = base.Add(time.Duration(i) * time.Minute)
		for p := 0; p < int(obd.NumPIDs); p++ {
			r.Values[p] = next()
		}
		if i%113 == 0 {
			r.Values[0] = math.Copysign(0, -1) // -0.0 must round-trip
		}
		recs = append(recs, r)
		if i%97 == 42 {
			ev := obd.Event{
				VehicleID: r.VehicleID,
				Time:      r.Time.Add(30 * time.Second),
				Type:      obd.EventType(i % 3),
				Note:      "note-" + r.VehicleID,
			}
			if ev.Type == obd.EventDTC {
				ev.DTC = &obd.DTC{Code: "P0128", Kind: obd.DTCStored}
			}
			evs = append(evs, ev)
		}
	}
	return recs, evs
}

func vehID(i int) string {
	return "veh-" + string(rune('a'+i%26)) + string(rune('a'+(i/26)%26))
}

// TestRoundTrip pins the core format contract: encode a mixed stream,
// decode it, and require Float64bits-identical records and structurally
// identical events, in order.
func TestRoundTrip(t *testing.T) {
	recs, evs := testStream(500, 7)
	frames, nframes, err := EncodeStream(nil, recs, evs, 64)
	if err != nil {
		t.Fatal(err)
	}
	if want := (len(recs) + len(evs) + 63) / 64; nframes != want {
		t.Fatalf("EncodeStream produced %d frames, want %d", nframes, want)
	}

	var dec Decoder
	var b Batch
	got, err := dec.DecodeAll(frames, &b)
	if err != nil {
		t.Fatal(err)
	}
	if got != nframes {
		t.Fatalf("DecodeAll decoded %d frames, want %d", got, nframes)
	}
	if len(b.Records) != len(recs) || len(b.Events) != len(evs) {
		t.Fatalf("decoded %d records / %d events, want %d / %d",
			len(b.Records), len(b.Events), len(recs), len(evs))
	}
	for i := range recs {
		want, got := &recs[i], &b.Records[i]
		if got.VehicleID != want.VehicleID || !got.Time.Equal(want.Time) {
			t.Fatalf("record %d: id/time mismatch: got %s@%v want %s@%v",
				i, got.VehicleID, got.Time, want.VehicleID, want.Time)
		}
		for p := range want.Values {
			if math.Float64bits(got.Values[p]) != math.Float64bits(want.Values[p]) {
				t.Fatalf("record %d value %d: bits %x != %x", i, p,
					math.Float64bits(got.Values[p]), math.Float64bits(want.Values[p]))
			}
		}
	}
	for i := range evs {
		want, got := evs[i], b.Events[i]
		if got.VehicleID != want.VehicleID || !got.Time.Equal(want.Time) ||
			got.Type != want.Type || got.Note != want.Note {
			t.Fatalf("event %d mismatch: got %+v want %+v", i, got, want)
		}
		if (got.DTC == nil) != (want.DTC == nil) {
			t.Fatalf("event %d DTC presence mismatch", i)
		}
		if want.DTC != nil && *got.DTC != *want.DTC {
			t.Fatalf("event %d DTC mismatch: got %+v want %+v", i, *got.DTC, *want.DTC)
		}
	}
}

// TestDecodeIntern pins the interning contract behind the zero-alloc
// guarantee: a returning vehicle's decoded ID must be the same string
// header, not a fresh allocation.
func TestDecodeIntern(t *testing.T) {
	recs, _ := testStream(10, 2)
	frames, _, err := EncodeStream(nil, recs, nil, 5)
	if err != nil {
		t.Fatal(err)
	}
	var dec Decoder
	var b Batch
	if _, err := dec.DecodeAll(frames, &b); err != nil {
		t.Fatal(err)
	}
	seen := map[string]*byte{}
	for i := range b.Records {
		id := b.Records[i].VehicleID
		ptr := unsafe.StringData(id)
		if prev, ok := seen[id]; ok && prev != ptr {
			t.Fatalf("vehicle ID %q decoded to two different string allocations", id)
		}
		seen[id] = ptr
	}
}

// TestDecodeZeroAlloc is the steady-state allocation oracle: after the
// first frame establishes batch capacity and the intern table, decoding
// a frame of records costs zero allocations per record.
func TestDecodeZeroAlloc(t *testing.T) {
	recs, _ := testStream(256, 4)
	frames, _, err := EncodeStream(nil, recs, nil, 256)
	if err != nil {
		t.Fatal(err)
	}
	var dec Decoder
	var b Batch
	// Warm up: capacity + intern table.
	if _, err := dec.DecodeAll(frames, &b); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		b.Reset()
		if _, err := dec.DecodeInto(frames, &b); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state decode allocated %.1f times per frame of %d records, want 0",
			allocs, len(recs))
	}

	// A decoder serving one stream after another (one per request, with
	// a reused bufio.Reader) keeps its frame buffer and batch across
	// calls: a warm repeat allocates nothing either.
	var body bytes.Reader
	br := bufio.NewReaderSize(&body, 64<<10)
	sink := SinkFunc(func(*Batch) error { return nil })
	stream := func() {
		body.Reset(frames)
		br.Reset(&body)
		if n, err := dec.DecodeStream(br, sink); err != nil || n != 1 {
			t.Fatalf("DecodeStream = %d frames, %v; want 1, nil", n, err)
		}
	}
	stream()
	if allocs := testing.AllocsPerRun(100, stream); allocs != 0 {
		t.Fatalf("repeated DecodeStream allocated %.1f times per stream, want 0", allocs)
	}
}

// TestDecodeStream feeds the same frames through the io.Reader path and
// requires identical batch boundaries and contents.
func TestDecodeStream(t *testing.T) {
	recs, evs := testStream(300, 5)
	frames, nframes, err := EncodeStream(nil, recs, evs, 50)
	if err != nil {
		t.Fatal(err)
	}
	var dec Decoder
	var got Batch
	calls := 0
	n, err := dec.DecodeStream(bytes.NewReader(frames), SinkFunc(func(b *Batch) error {
		calls++
		got.Records = append(got.Records, b.Records...)
		got.Events = append(got.Events, b.Events...)
		return nil
	}))
	if err != nil {
		t.Fatal(err)
	}
	if n != nframes || calls != nframes {
		t.Fatalf("stream decoded %d frames with %d sink calls, want %d", n, calls, nframes)
	}
	if len(got.Records) != len(recs) || len(got.Events) != len(evs) {
		t.Fatalf("stream decoded %d/%d items, want %d/%d",
			len(got.Records), len(got.Events), len(recs), len(evs))
	}
	// A stream cut mid-frame must surface as ErrTruncated.
	if _, err := dec.DecodeStream(bytes.NewReader(frames[:len(frames)-3]), nopSink{}); err != ErrTruncated {
		t.Fatalf("truncated stream: got %v, want ErrTruncated", err)
	}
}

type nopSink struct{}

func (nopSink) ConsumeBatch(*Batch) error { return nil }

// TestDecodeRejectsCorruption walks the typed-error contract: magic,
// version, kind, CRC, truncation, oversize and structural corruption
// each fail with their error and never panic.
func TestDecodeRejectsCorruption(t *testing.T) {
	recs, evs := testStream(40, 3)
	frame, _, err := EncodeStream(nil, recs, evs, 1024)
	if err != nil {
		t.Fatal(err)
	}
	var dec Decoder
	check := func(name string, buf []byte, want error) {
		t.Helper()
		var b Batch
		if _, err := dec.DecodeInto(buf, &b); err != want {
			t.Fatalf("%s: got %v, want %v", name, err, want)
		}
	}
	corrupt := func(mut func(c []byte)) []byte {
		c := append([]byte(nil), frame...)
		mut(c)
		return c
	}
	check("empty", nil, ErrTruncated)
	check("short header", frame[:HeaderSize-1], ErrTruncated)
	check("bad magic", corrupt(func(c []byte) { c[0] = 'X' }), ErrBadMagic)
	check("bad version", corrupt(func(c []byte) { c[4] = 99 }), ErrBadVersion)
	check("bad kind", corrupt(func(c []byte) { c[5] = 7 }), ErrBadKind)
	check("payload bit flip", corrupt(func(c []byte) { c[HeaderSize+10] ^= 0x40 }), ErrCorrupt)
	check("truncated payload", frame[:len(frame)-1], ErrTruncated)
	check("oversize length", corrupt(func(c []byte) {
		binary.LittleEndian.PutUint32(c[6:], uint32(DefaultMaxFrameBytes+1))
	}), ErrFrameTooLarge)
	// A lying item count with a fixed-up CRC is structural corruption.
	check("bad count", corrupt(func(c []byte) {
		binary.LittleEndian.PutUint32(c[HeaderSize:], 1<<30)
		binary.LittleEndian.PutUint32(c[10:], crc32.Checksum(c[HeaderSize:], castagnoli))
	}), ErrBadFrame)
}

// TestEncoderLimits pins the encoder's sticky error: an oversize
// vehicle ID fails the stream instead of truncating it silently.
func TestEncoderLimits(t *testing.T) {
	var enc Encoder
	enc.Record(&timeseries.Record{VehicleID: strings.Repeat("v", maxIDLen+1)})
	enc.End()
	if enc.Err() == nil {
		t.Fatal("encoding an oversize vehicle ID did not error")
	}
}

// TestTraceContextRoundTrip pins the trace-context extension item:
// a frame carrying one survives encode→decode with the producer's
// trace ID intact, a frame without one decodes to TraceID 0 (the
// pre-extension format is a strict subset), and TraceContext(0) emits
// nothing so untraced producers keep their byte-identical frames.
func TestTraceContextRoundTrip(t *testing.T) {
	recs, _ := testStream(8, 2)

	var traced Encoder
	traced.Begin()
	traced.TraceContext(0xdeadbeefcafe)
	for i := range recs {
		traced.Record(&recs[i])
	}
	traced.End()
	if traced.Err() != nil {
		t.Fatal(traced.Err())
	}

	var dec Decoder
	var b Batch
	if _, err := dec.DecodeInto(traced.Bytes(), &b); err != nil {
		t.Fatal(err)
	}
	if b.TraceID != 0xdeadbeefcafe {
		t.Fatalf("decoded TraceID %#x, want %#x", b.TraceID, uint64(0xdeadbeefcafe))
	}
	if len(b.Records) != len(recs) {
		t.Fatalf("trace item displaced records: got %d, want %d", len(b.Records), len(recs))
	}

	// Old-format frames (no trace item) must keep decoding and must not
	// inherit a trace ID from a previously decoded frame.
	var plain Encoder
	plain.Begin()
	for i := range recs {
		plain.Record(&recs[i])
	}
	plain.End()
	b.Reset()
	if _, err := dec.DecodeInto(plain.Bytes(), &b); err != nil {
		t.Fatal(err)
	}
	if b.TraceID != 0 {
		t.Fatalf("untraced frame decoded to TraceID %#x, want 0", b.TraceID)
	}

	// A zero trace ID is "no context": the encoder emits no item, so the
	// frame is byte-identical to one that never called TraceContext.
	var zero Encoder
	zero.Begin()
	zero.TraceContext(0)
	for i := range recs {
		zero.Record(&recs[i])
	}
	zero.End()
	if !bytes.Equal(zero.Bytes(), plain.Bytes()) {
		t.Fatal("TraceContext(0) changed the encoded frame bytes")
	}
}

// TestCSVDecode pins the CSV compat path: schema-checked streaming
// decode in batches through the same FrameSink as the binary path.
func TestCSVDecode(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("vehicle,time,rpm,speed,coolantTemp,intakeTemp,mapIntake,MAFairFlowRate\n")
	sb.WriteString("veh-01,2023-03-01T08:00:00Z,1500.5,62.25,88,21,101,14.5\n")
	sb.WriteString("veh-02,2023-03-01T08:01:00Z,900,0,87,20,35,4.125\n")
	var got Batch
	batches := 0
	n, err := DecodeCSV(strings.NewReader(sb.String()), 1, SinkFunc(func(b *Batch) error {
		batches++
		got.Records = append(got.Records, b.Records...)
		return nil
	}))
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 || batches != 2 || len(got.Records) != 2 {
		t.Fatalf("decoded %d rows in %d batches (%d records), want 2/2/2", n, batches, len(got.Records))
	}
	if got.Records[0].VehicleID != "veh-01" || got.Records[0].Values[obd.EngineRPM] != 1500.5 {
		t.Fatalf("row 1 decoded as %+v", got.Records[0])
	}
	if _, err := DecodeCSV(strings.NewReader("not,a,schema\n1,2,3\n"), 0, nopSink{}); err == nil {
		t.Fatal("schema mismatch did not error")
	}
}

// TestJSONDecode pins the JSON compat path for both accepted shapes
// (array, NDJSON) and both item kinds.
func TestJSONDecode(t *testing.T) {
	array := `[
	 {"vehicle":"veh-01","time":"2023-03-01T08:00:00Z","values":[1500,60,88,21,101,14.5]},
	 {"vehicle":"veh-01","time":"2023-03-01T08:01:00Z","event":"repair","note":"water pump"},
	 {"vehicle":"veh-02","time":"2023-03-01T08:02:00Z","event":"dtc","dtc":"P0128:stored"}
	]`
	ndjson := `{"vehicle":"veh-01","time":"2023-03-01T08:00:00Z","values":[1500,60,88,21,101,14.5]}
	{"vehicle":"veh-01","time":"2023-03-01T08:01:00Z","event":"repair","note":"water pump"}
	{"vehicle":"veh-02","time":"2023-03-01T08:02:00Z","event":"dtc","dtc":"P0128:stored"}`
	for name, input := range map[string]string{"array": array, "ndjson": ndjson} {
		var got Batch
		n, err := DecodeJSON(strings.NewReader(input), 0, SinkFunc(func(b *Batch) error {
			got.Records = append(got.Records, b.Records...)
			got.Events = append(got.Events, b.Events...)
			return nil
		}))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if n != 3 || len(got.Records) != 1 || len(got.Events) != 2 {
			t.Fatalf("%s: decoded %d items (%d records, %d events), want 3 (1, 2)",
				name, n, len(got.Records), len(got.Events))
		}
		if got.Events[1].DTC == nil || got.Events[1].DTC.Kind != obd.DTCStored {
			t.Fatalf("%s: DTC event decoded as %+v", name, got.Events[1])
		}
	}
	if _, err := DecodeJSON(strings.NewReader(`[{"vehicle":"v","time":"2023-03-01T08:00:00Z","values":[1]}]`), 0, nopSink{}); err == nil {
		t.Fatal("short values vector did not error")
	}
}
