// Command perfbench is the repository benchmark. It runs one named
// workload against the code in the checkout it was built from, checks
// the workload's outputs, and prints every metric with its unit and
// sample count; the last line of standard output is one JSON object
// with the keys correct, attempted, failed and metrics.
//
// Workloads:
//
//	serve-bulk   historic backfill: the bench fleet streamed to a
//	             navarchos-serve process as 512-item NVWIRE1 frames,
//	             many frames per POST, closed loop
//	serve-live   uploads as they arrive: a 1,000-vehicle fleet sent to
//	             navarchos-serve as small traced frames, one request per
//	             frame, at a fixed offered rate (open loop)
//	grid         the paper's offline evaluation: eval.RunGrid over
//	             4 techniques × 4 transforms × 2 PH × 2 settings
//
// With -trace 0 the end-to-end metrics are printed; with -trace 1 the
// same inputs run in-process with every layer wrapped from outside,
// and the per-layer metrics are printed instead. run.sh builds this
// command and navarchos-serve and passes their paths.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"runtime"
	"sort"
	"syscall"
	"time"

	"github.com/navarchos/pdm/internal/experiments"
)

// deadline bounds a whole invocation: a run that cannot finish in time
// is killed with every process it started.
const deadline = 170 * time.Second

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects one invocation's metrics, in print order, and the
// operation and correctness tallies of the final line.
type report struct {
	names     []string
	infos     []string
	metrics   map[string]metric
	counts    map[string]int
	attempted int
	failed    int
	problems  []string
}

func newReport() *report {
	return &report{metrics: map[string]metric{}, counts: map[string]int{}}
}

// set records a metric with the number of samples behind it.
func (r *report) set(name string, value float64, unit string, samples int) {
	if _, ok := r.metrics[name]; !ok {
		r.names = append(r.names, name)
	}
	r.metrics[name] = metric{Value: value, Unit: unit}
	r.counts[name] = samples
}

// info records a figure that is printed with its sample count but
// carries no bound, so it stays out of the final line's metrics.
func (r *report) info(name string, value float64, unit string, samples int) {
	r.infos = append(r.infos, fmt.Sprintf("info   %-40s %14.6g %-10s n=%d", name, value, unit, samples))
}

// fail marks the run's outputs as wrong.
func (r *report) fail(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	r.problems = append(r.problems, msg)
	log.Printf("check failed: %s", msg)
}

// print writes one line per metric and then the final JSON line.
func (r *report) print(w io.Writer) error {
	for _, line := range r.infos {
		fmt.Fprintln(w, line)
	}
	for _, name := range r.names {
		m := r.metrics[name]
		fmt.Fprintf(w, "metric %-40s %14.6g %-10s n=%d\n", name, m.Value, m.Unit, r.counts[name])
	}
	for _, p := range r.problems {
		fmt.Fprintf(w, "check FAILED: %s\n", p)
	}
	fmt.Fprintf(w, "operations attempted=%d failed=%d correct=%v\n", r.attempted, r.failed, len(r.problems) == 0)
	b, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{len(r.problems) == 0, r.attempted, r.failed, r.metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// options are the command-line settings shared by every workload.
type options struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	serveBin string
	workdir  string
	nproc    int
}

// header is the run stamp printed before the metrics.
type header struct {
	Env      experiments.Env `json:"env"`
	Workload string          `json:"workload"`
	Seed     int64           `json:"seed"`
	Seconds  float64         `json:"seconds"`
	Trace    bool            `json:"trace"`
	Inputs   inputSizes      `json:"inputs"`
}

// inputSizes describes the generated inputs. For the serve workloads
// Records, Events, Frames and Connections describe the measured wire
// stream; OfferedRate is serve-live's schedule in items per second.
type inputSizes struct {
	Vehicles    int     `json:"vehicles"`
	Records     int     `json:"records"`
	Events      int     `json:"events"`
	Frames      int     `json:"frames,omitempty"`
	Connections int     `json:"connections,omitempty"`
	OfferedRate float64 `json:"offered_rate_items_per_s,omitempty"`
	// WarmRecords are sent before the measured phase (serve-live).
	WarmRecords int `json:"warm_records,omitempty"`
}

func printHeader(o *options, in inputSizes) {
	b, _ := json.Marshal(header{
		Env:      experiments.CaptureEnv(),
		Workload: o.workload,
		Seed:     o.seed,
		Seconds:  o.seconds.Seconds(),
		Trace:    o.trace,
		Inputs:   in,
	})
	fmt.Printf("header %s\n", b)
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("perfbench: ")
	var o options
	var seconds, trace int
	flag.StringVar(&o.workload, "workload", "", "workload: serve-bulk, serve-live or grid")
	flag.Int64Var(&o.seed, "seed", 1, "fleet generator seed")
	flag.IntVar(&seconds, "seconds", 15, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1 = traced in-process run printing per-layer metrics")
	flag.StringVar(&o.serveBin, "serve", "", "navarchos-serve binary built from this checkout")
	flag.StringVar(&o.workdir, "workdir", os.TempDir(), "directory for journals and other temporary files")
	flag.Parse()
	if seconds < 1 || (trace != 0 && trace != 1) {
		log.Fatal("-seconds must be at least 1 and -trace 0 or 1")
	}
	o.seconds = time.Duration(seconds) * time.Second
	o.trace = trace == 1
	o.nproc = runtime.NumCPU()

	run, ok := workloads[o.workload]
	if !ok {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		log.Fatalf("unknown -workload %q (want one of %v)", o.workload, names)
	}
	if o.serveBin == "" && o.workload != "grid" && !o.trace {
		log.Fatal("-serve is required for the serve workloads")
	}
	dir, err := os.MkdirTemp(o.workdir, "run-")
	if err != nil {
		log.Fatal(err)
	}
	o.workdir = dir

	watchdog := time.AfterFunc(deadline, func() {
		killAll()
		os.RemoveAll(dir)
		log.Fatalf("run exceeded %v; stopped", deadline)
	})
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM, syscall.SIGHUP)
	go func() {
		sig := <-sigs
		killAll()
		os.RemoveAll(dir)
		log.Fatalf("stopped by %v", sig)
	}()
	rep := newReport()
	err = run(&o, rep)
	watchdog.Stop()
	killAll()
	os.RemoveAll(dir)
	if err != nil {
		var ce checkError
		if !errors.As(err, &ce) {
			log.Fatal(err)
		}
		rep.fail("%v", err)
	}
	if err := rep.print(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// checkError marks a failure of the output checks (the run completed
// but produced wrong results), as opposed to a failure to run at all.
type checkError struct{ msg string }

func (e checkError) Error() string { return e.msg }

func checkErrorf(format string, args ...any) error {
	return checkError{fmt.Sprintf(format, args...)}
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(*options, *report) error{
	"serve-bulk": runServeBulk,
	"serve-live": runServeLive,
	"grid":       runGrid,
}

// setLatencies reports the request and alarm latency medians, which
// carry bounds, and prints their p99s. On a shared host the p99s move
// with the host's scheduling stalls from run to run by more than any
// bound can hold, so they are printed for reading, not gated.
func setLatencies(rep *report, requestMs, alarmMs []float64) {
	rep.set("request_p50_ms", quantile(requestMs, 0.50), "ms", len(requestMs))
	rep.info("request_p99_ms", quantile(requestMs, 0.99), "ms", len(requestMs))
	rep.set("alarm_p50_ms", quantile(alarmMs, 0.50), "ms", len(alarmMs))
	rep.info("alarm_p99_ms", quantile(alarmMs, 0.99), "ms", len(alarmMs))
}

// median returns the middle of xs (the mean of the two middles for an
// even count); 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantile is the nearest-rank q-quantile of xs; 0 for none.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(q*float64(len(s))+0.999999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}
