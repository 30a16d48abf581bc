package main

import (
	"fmt"
	"os"
	"syscall"
	"time"
	"unsafe"
)

// sleeper waits for schedule slots with microsecond precision. The Go
// runtime's own timers wake an idle process in whole milliseconds —
// its poller sleeps in millisecond steps — which would put the
// generator's error into every sub-millisecond slot of an open loop.
// A timerfd read through the runtime's poller wakes when the kernel
// timer fires, without holding a scheduler slot while it waits.
type sleeper struct{ f *os.File }

const (
	clockMonotonic = 1
	tfdNonblock    = 0x800 // TFD_NONBLOCK
	tfdCloexec     = 0x80000
)

func newSleeper() (*sleeper, error) {
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, tfdNonblock|tfdCloexec, 0)
	if errno != 0 {
		return nil, fmt.Errorf("timerfd_create: %w", errno)
	}
	return &sleeper{os.NewFile(fd, "timerfd")}, nil
}

// until blocks the calling goroutine until t.
func (s *sleeper) until(t time.Time) error {
	d := time.Until(t)
	if d <= time.Microsecond {
		return nil
	}
	spec := [2]syscall.Timespec{{}, syscall.NsecToTimespec(int64(d))} // interval 0, one shot
	sc, err := s.f.SyscallConn()
	if err != nil {
		return err
	}
	var errno syscall.Errno
	if err := sc.Control(func(fd uintptr) {
		_, _, errno = syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, fd, 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0)
	}); err != nil {
		return err
	}
	if errno != 0 {
		return fmt.Errorf("timerfd_settime: %w", errno)
	}
	var buf [8]byte
	_, err = s.f.Read(buf[:])
	return err
}

func (s *sleeper) close() error { return s.f.Close() }
