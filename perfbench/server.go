package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// running tracks every started server so a failing or timed-out run
// can stop them all before it exits.
var (
	runningMu sync.Mutex
	running   = map[*serverProc]bool{}
)

// killAll kills every server still running and waits for each to end.
func killAll() {
	runningMu.Lock()
	procs := make([]*serverProc, 0, len(running))
	for s := range running {
		procs = append(procs, s)
	}
	runningMu.Unlock()
	for _, s := range procs {
		s.kill()
	}
}

// serverProc is one navarchos-serve process.
type serverProc struct {
	cmd     *exec.Cmd
	base    string
	journal string
	// setup is exec to the first 200 from GET /fleet.
	setup  time.Duration
	stderr bytes.Buffer
	exited chan struct{}
	err    error // Wait's result, valid once exited is closed
	client *http.Client
}

// startServer execs navarchos-serve on a free loopback port with the
// serve workloads' settings, a pinned shard count and a journal file
// in the run's directory, and waits until it answers GET /fleet. Its
// stdout (one line per alarm) is drained by the exec package's copier,
// so a chatty server never stalls.
func startServer(o *options) (*serverProc, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := l.Addr().String()
	l.Close()
	jf, err := os.CreateTemp(o.workdir, "journal-*.jsonl")
	if err != nil {
		return nil, err
	}
	jf.Close()
	s := &serverProc{
		base:    "http://" + addr,
		journal: jf.Name(),
		exited:  make(chan struct{}),
		client:  &http.Client{Timeout: 10 * time.Second, Transport: &http.Transport{MaxConnsPerHost: 1}},
	}
	s.cmd = exec.Command(o.serveBin,
		"-addr", addr,
		"-shards", strconv.Itoa(o.nproc),
		"-factor", strconv.Itoa(serveFactor),
		"-journal", s.journal)
	// The kernel kills the server if this process dies first, so no
	// exit path, a fatal signal included, leaves it running.
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	s.cmd.Stdout = io.Discard
	s.cmd.Stderr = &s.stderr
	start := time.Now()
	if err := s.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start navarchos-serve: %w", err)
	}
	runningMu.Lock()
	running[s] = true
	runningMu.Unlock()
	go func() {
		s.err = s.cmd.Wait()
		close(s.exited)
	}()
	for {
		select {
		case <-s.exited:
			s.forget()
			return nil, fmt.Errorf("navarchos-serve exited during start-up: %v\n%s", s.err, s.stderr.String())
		default:
		}
		if resp, err := s.client.Get(s.base + "/fleet?n=1"); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				s.setup = time.Since(start)
				return s, nil
			}
		}
		if time.Since(start) > 30*time.Second {
			s.kill()
			return nil, fmt.Errorf("navarchos-serve not ready after 30s")
		}
		time.Sleep(500 * time.Microsecond)
	}
}

func (s *serverProc) forget() {
	runningMu.Lock()
	delete(running, s)
	runningMu.Unlock()
}

// kill ends the process at once and waits for it; a no-op once it
// has exited.
func (s *serverProc) kill() {
	s.cmd.Process.Kill()
	<-s.exited
	s.forget()
}

// stop sends SIGINT — the server drains its engine and closes the
// journal — and waits for the exit.
func (s *serverProc) stop() error {
	if err := s.cmd.Process.Signal(syscall.SIGINT); err != nil {
		s.kill()
		return fmt.Errorf("signal navarchos-serve: %w", err)
	}
	select {
	case <-s.exited:
	case <-time.After(60 * time.Second):
		s.kill()
		return fmt.Errorf("navarchos-serve did not exit within 60s of SIGINT")
	}
	s.forget()
	if s.err != nil {
		return fmt.Errorf("navarchos-serve: %v\n%s", s.err, s.stderr.String())
	}
	return nil
}

// peakRSSMB reads the process's VmHWM (peak resident set) in MiB. Call
// it before stop: the figure vanishes with the process.
func (s *serverProc) peakRSSMB() (float64, error) {
	return vmHWM(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
}

func vmHWM(path string) (float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM in %s", path)
}

// fleetCounts is the slice of GET /fleet this benchmark reads.
type fleetCounts struct {
	Engine struct {
		RecordsIn uint64
		EventsIn  uint64
	} `json:"engine"`
}

// waitProcessed polls GET /fleet until the engine has processed the
// given numbers of records and events, returning the moment it saw
// them.
func (s *serverProc) waitProcessed(records, events int) (time.Time, error) {
	start := time.Now()
	for {
		resp, err := s.client.Get(s.base + "/fleet?n=1")
		if err != nil {
			return time.Time{}, err
		}
		var fc fleetCounts
		err = json.NewDecoder(resp.Body).Decode(&fc)
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err != nil {
			return time.Time{}, fmt.Errorf("decode /fleet: %w", err)
		}
		if fc.Engine.RecordsIn >= uint64(records) && fc.Engine.EventsIn >= uint64(events) {
			return time.Now(), nil
		}
		if time.Since(start) > 60*time.Second {
			return time.Time{}, fmt.Errorf("engine processed %d/%d records after 60s", fc.Engine.RecordsIn, records)
		}
		time.Sleep(time.Millisecond)
	}
}
