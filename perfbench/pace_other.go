//go:build !linux

package main

import "time"

// pacer waits until a request's due time. Off Linux it falls back to
// time.Sleep, whose granularity shows up as generator lag.
type pacer struct{}

func newPacer() (*pacer, error) { return &pacer{}, nil }

func (p *pacer) waitUntil(t time.Time) error {
	time.Sleep(time.Until(t))
	return nil
}

func (p *pacer) close() {}
