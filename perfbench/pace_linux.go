package main

import (
	"os"
	"syscall"
	"time"
	"unsafe"
)

// pacer waits until a request's due time. time.Sleep rounds sub-
// millisecond waits up to the next millisecond on Linux, which would add
// up to 1 ms of generator lateness to every request at the rates the
// benchmark runs; a timerfd read through the runtime poller wakes within
// tens of microseconds.
type pacer struct {
	fd   uintptr
	file *os.File
}

type itimerspec struct {
	interval, value syscall.Timespec
}

const clockMonotonic = 1

func newPacer() (*pacer, error) {
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if errno != 0 {
		return nil, os.NewSyscallError("timerfd_create", errno)
	}
	// A non-blocking descriptor makes the File pollable: Read parks the
	// goroutine in the runtime poller instead of blocking a thread.
	return &pacer{fd: fd, file: os.NewFile(fd, "timerfd")}, nil
}

// waitUntil returns at t, or at once when t has passed.
func (p *pacer) waitUntil(t time.Time) error {
	d := time.Until(t)
	if d <= 0 {
		return nil
	}
	spec := itimerspec{value: syscall.NsecToTimespec(int64(d))}
	if _, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, p.fd, 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0); errno != 0 {
		return os.NewSyscallError("timerfd_settime", errno)
	}
	var buf [8]byte
	_, err := p.file.Read(buf[:])
	return err
}

func (p *pacer) close() { p.file.Close() }
