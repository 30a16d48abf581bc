package main

import (
	"time"

	"github.com/navarchos/pdm/internal/core"
	"github.com/navarchos/pdm/internal/fleetsim"
	"github.com/navarchos/pdm/internal/obd"
	"github.com/navarchos/pdm/internal/timeseries"
	"github.com/navarchos/pdm/internal/wire"
)

// benchFleet is serve-bulk's deep fleet: 40 vehicles × 240 days.
func benchFleet(seed int64) *fleetsim.Fleet {
	cfg := fleetsim.BenchConfig()
	cfg.Seed = seed
	return fleetsim.Generate(cfg)
}

// wideFleet is serve-live's wide fleet: 1,000 vehicles × 35 days, so
// per-vehicle state overflows the per-core L2 cache and the days after
// the warm-up outlast a 30-second measured phase.
func wideFleet(seed int64) *fleetsim.Fleet {
	cfg := fleetsim.BenchConfig()
	cfg.Seed = seed
	cfg.NumVehicles = 1000
	cfg.Days = 35
	return fleetsim.Generate(cfg)
}

// smallFleet is the grid's fleet: 8 vehicles at small scale.
func smallFleet(seed int64) *fleetsim.Fleet {
	cfg := fleetsim.SmallConfig()
	cfg.Seed = seed
	return fleetsim.Generate(cfg)
}

// frame locates one encoded NVWIRE1 frame inside its connection's
// buffer.
type frame struct {
	off, end int
	records  int
	events   int
	trace    uint64
}

func (f frame) items() int { return f.records + f.events }

// connStream is the chronological frame stream one connection sends:
// every item of the vehicles partitioned onto it, and no others, so
// sending its frames in order keeps each vehicle's order.
type connStream struct {
	buf    []byte
	frames []frame
}

// traceID names frame i of connection c; traceFrame inverts it.
func traceID(c, i int) uint64 { return uint64(c+1)<<32 | uint64(i+1) }

func traceFrame(id uint64) (c, i int) { return int(id>>32) - 1, int(id&0xffffffff) - 1 }

// partition assigns vehicles round-robin in index order to conns
// connections.
func partition(f *fleetsim.Fleet, conns int) map[string]int {
	part := make(map[string]int, len(f.Vehicles))
	for i, id := range f.AllVehicleIDs() {
		part[id] = i % conns
	}
	return part
}

// buildStreams encodes the fleet's items whose time passes keep as
// conns connection streams of frames holding perFrame items each, the
// vehicles placed by part. Items are merged chronologically with
// events before same-timestamp records, exactly the order
// Engine.Replay feeds them. Traced frames carry their trace ID.
func buildStreams(f *fleetsim.Fleet, part map[string]int, conns, perFrame int, traced bool, keep func(time.Time) bool) ([]connStream, error) {
	encs := make([]wire.Encoder, conns)
	out := make([]connStream, conns)
	open := make([]bool, conns)
	cur := make([]frame, conns)
	begin := func(c int) {
		if open[c] {
			return
		}
		cur[c] = frame{off: len(encs[c].Bytes())}
		if traced {
			cur[c].trace = traceID(c, len(out[c].frames))
		}
		encs[c].Begin()
		encs[c].TraceContext(cur[c].trace)
		open[c] = true
	}
	end := func(c int) {
		encs[c].End()
		open[c] = false
		cur[c].end = len(encs[c].Bytes())
		out[c].frames = append(out[c].frames, cur[c])
	}
	err := core.Merged("", f.Records, f.Events,
		func(ev obd.Event) error {
			if !keep(ev.Time) {
				return nil
			}
			c := part[ev.VehicleID]
			begin(c)
			encs[c].Event(&ev)
			if cur[c].events++; cur[c].items() >= perFrame {
				end(c)
			}
			return encs[c].Err()
		},
		func(r timeseries.Record) error {
			if !keep(r.Time) {
				return nil
			}
			c := part[r.VehicleID]
			begin(c)
			encs[c].Record(&r)
			if cur[c].records++; cur[c].items() >= perFrame {
				end(c)
			}
			return encs[c].Err()
		})
	if err != nil {
		return nil, err
	}
	for c := range out {
		if open[c] {
			end(c)
		}
		out[c].buf = encs[c].Bytes()
	}
	return out, nil
}

// sentItems returns, per connection, how many items its first n[c]
// frames carry.
func sentItems(streams []connStream, n []int) []int {
	items := make([]int, len(streams))
	for c, s := range streams {
		for _, fr := range s.frames[:n[c]] {
			items[c] += fr.items()
		}
	}
	return items
}

// sentPrefix returns the records and events that the first items[c]
// items of each connection carry, in the chronological merged order of
// the whole fleet: the exact streams the server received.
func sentPrefix(f *fleetsim.Fleet, conns int, items []int) ([]timeseries.Record, []obd.Event, error) {
	part := partition(f, conns)
	seen := make([]int, conns)
	var recs []timeseries.Record
	var evs []obd.Event
	err := core.Merged("", f.Records, f.Events,
		func(ev obd.Event) error {
			c := part[ev.VehicleID]
			if seen[c] < items[c] {
				evs = append(evs, ev)
			}
			seen[c]++
			return nil
		},
		func(r timeseries.Record) error {
			c := part[r.VehicleID]
			if seen[c] < items[c] {
				recs = append(recs, r)
			}
			seen[c]++
			return nil
		})
	return recs, evs, err
}
