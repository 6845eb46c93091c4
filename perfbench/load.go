package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"eyeballas/internal/client"
	"eyeballas/internal/trace"
)

type outcome uint8

const (
	okOutcome     outcome = iota
	failedOutcome         // transport error, timeout, shed or unexpected status
	wrongOutcome          // answered, but not what the offline answer says
)

// reply is what sending one request reports to the generator.
type reply struct {
	kind   opKind
	traced bool
	oc     outcome
}

// sample is one request's measurement. Latency runs from the due time,
// so time a request spent queued behind a slow one counts against it.
type sample struct {
	reply
	lat time.Duration // end − due
	lag time.Duration // send − due: how late the generator ran
	at  time.Duration // due (open loop) or end (closed loop), from the slice's start
}

// sendFunc sends request i, due at due and actually sent at sent.
type sendFunc func(ctx context.Context, i int, due, sent time.Time) reply

// openLoop sends n requests at a fixed rate from the given number of
// sender goroutines, whatever the server's speed: request i is due at
// start + i/rate. A sender takes the next request in due order, waits for
// its due time if it is early, and sends it at once if it is late.
func openLoop(ctx context.Context, start time.Time, rate float64, n, senders int, send sendFunc) ([]sample, error) {
	interval := float64(time.Second) / rate
	out := make([]sample, n)
	pacers := make([]*pacer, senders)
	for s := range pacers {
		p, err := newPacer()
		if err != nil {
			for _, q := range pacers[:s] {
				q.close()
			}
			return nil, err
		}
		pacers[s] = p
	}
	defer func() {
		for _, p := range pacers {
			p.close()
		}
	}()
	var (
		next atomic.Int64
		wg   sync.WaitGroup
		errs = make([]error, senders)
	)
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n || ctx.Err() != nil {
					return
				}
				due := start.Add(time.Duration(float64(i) * interval))
				if err := pacers[s].waitUntil(due); err != nil {
					errs[s] = err
					return
				}
				sent := time.Now()
				rep := send(ctx, i, due, sent)
				end := time.Now()
				out[i] = sample{reply: rep, lat: end.Sub(due), lag: sent.Sub(due), at: due.Sub(start)}
			}
		}(s)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// closedLoop keeps every sender busy for dur: each sends its next request
// as soon as the previous one completes. It returns the samples and the
// time from start to the last completion.
func closedLoop(ctx context.Context, start time.Time, dur time.Duration, senders int, send sendFunc) ([]sample, time.Duration) {
	var (
		next atomic.Int64
		wg   sync.WaitGroup
		per  = make([][]sample, senders)
	)
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for ctx.Err() == nil && time.Since(start) < dur {
				i := int(next.Add(1) - 1)
				t := time.Now()
				rep := send(ctx, i, t, t)
				end := time.Now()
				per[s] = append(per[s], sample{reply: rep, lat: end.Sub(t), at: end.Sub(start)})
			}
		}(s)
	}
	wg.Wait()
	var (
		out     []sample
		elapsed time.Duration
	)
	for _, ss := range per {
		out = append(out, ss...)
		for _, s := range ss {
			elapsed = max(elapsed, s.at)
		}
	}
	return out, elapsed
}

// traceWindows alternates tracing on and off in fixed windows from the
// phase start, so traced and untraced requests share the cache state and
// the host's noise, and their difference is the tracing overhead.
type traceWindows struct {
	enabled bool
	width   time.Duration
	start   atomic.Int64 // phase start, Unix nanoseconds
}

func (t *traceWindows) restart(at time.Time) { t.start.Store(at.UnixNano()) }

// active reports whether requests sent at now are traced: odd windows are.
func (t *traceWindows) active(now time.Time) bool {
	if !t.enabled {
		return false
	}
	k := now.UnixNano() - t.start.Load()
	return k >= 0 && (k/int64(t.width))%2 == 1
}

// spanLog keeps finished root spans in memory until the run ends.
type spanLog struct {
	mu    sync.Mutex
	roots []*trace.Span
}

func (l *spanLog) add(s *trace.Span) {
	if s == nil {
		return
	}
	l.mu.Lock()
	l.roots = append(l.roots, s)
	l.mu.Unlock()
}

// take returns the spans logged since the last take.
func (l *spanLog) take() []*trace.Span {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := l.roots
	l.roots = nil
	return out
}

// serveSpans wraps the server's handler from outside: in traced windows
// each request's ServeHTTP runs inside a span named after its endpoint.
type serveSpans struct {
	h       http.Handler
	tracer  *trace.Tracer
	windows *traceWindows
	log     spanLog
}

func (s *serveSpans) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	if !s.windows.active(start) {
		s.h.ServeHTTP(w, r)
		return
	}
	sp := s.tracer.StartAt(serverSpanName(r.URL.Path), start, "")
	s.h.ServeHTTP(w, r)
	sp.EndAt(time.Now())
	s.log.add(sp)
}

func serverSpanName(path string) string {
	switch {
	case path == "/v1/lookup":
		return "serve.lookup"
	case strings.HasPrefix(path, "/v1/as/"):
		return "serve.as"
	case strings.HasPrefix(path, "/v1/footprint/"):
		return "serve.footprint"
	case path == "/v1/footprints":
		return "serve.footprints"
	}
	return "serve.other"
}

var clientSpanNames = [numKinds]string{"client.lookup", "client.as", "client.footprint", "client.footprints"}

// requester sends planned requests through internal/client and checks every
// answer against the offline one.
type requester struct {
	c       *client.Client
	plan    []op
	check   *checker
	tracer  *trace.Tracer
	windows *traceWindows
	spans   *spanLog

	calls    atomic.Int64
	attempts atomic.Int64 // wire attempts, from the client's Observer

	// completed counts finished requests; when it reaches
	// firstN, onFirstN runs once (set before a phase starts).
	completed atomic.Int64
	firstN    int64
	onFirstN  func()
}

// sendFrom returns a sendFunc whose request i is plan entry off+i.
func (d *requester) sendFrom(off int) sendFunc {
	return func(ctx context.Context, i int, due, sent time.Time) reply {
		return d.send(ctx, off+i, due, sent)
	}
}

func (d *requester) send(ctx context.Context, i int, due, sent time.Time) reply {
	o := &d.plan[i%len(d.plan)]
	rep := reply{kind: o.kind, traced: d.windows.active(sent)}
	var root, sp *trace.Span
	if rep.traced {
		root = d.tracer.StartAt("loadgen.request", due, "")
		sp = root.ChildAt(clientSpanNames[o.kind], sent)
	}
	rep.oc = d.do(ctx, o)
	if rep.traced {
		end := time.Now()
		sp.EndAt(end)
		root.EndAt(end)
		d.spans.add(root)
	}
	if d.completed.Add(1) == d.firstN && d.onFirstN != nil {
		d.onFirstN()
	}
	return rep
}

// do sends one request and validates the answer.
func (d *requester) do(ctx context.Context, o *op) outcome {
	d.calls.Add(1)
	switch o.kind {
	case opLookup:
		res, err := d.c.Lookup(ctx, o.ip)
		if err != nil {
			return failedOutcome
		}
		if res.IP != o.ip || res.Matched != o.wantMatched || res.ASN != o.wantASN || res.InDataset != o.wantIn {
			d.check.fail("lookup %s: got matched=%t asn=%d in_dataset=%t, want %t %d %t",
				o.ip, res.Matched, res.ASN, res.InDataset, o.wantMatched, o.wantASN, o.wantIn)
			return wrongOutcome
		}
	case opAS:
		info, err := d.c.AS(ctx, o.asn)
		switch {
		case o.wantUsers == 0 && errors.Is(err, client.ErrNotFound):
		case err != nil:
			return failedOutcome
		case o.wantUsers == 0:
			d.check.fail("AS%d: served a record for an AS outside the dataset", o.asn)
			return wrongOutcome
		case info.ASN != o.asn || info.Users != o.wantUsers:
			d.check.fail("AS%d: got asn=%d users=%d, want users=%d", o.asn, info.ASN, info.Users, o.wantUsers)
			return wrongOutcome
		}
	case opFootprint:
		body, err := d.c.Footprint(ctx, o.asn, o.bw)
		if err != nil {
			return failedOutcome
		}
		if !d.check.footprint(keyOf(o.asn, o.bw), body) {
			return wrongOutcome
		}
	case opBulk:
		lines, err := d.c.Footprints(ctx, o.asns, o.bw)
		if err != nil {
			return failedOutcome
		}
		for j, line := range lines {
			if bytes.HasPrefix(line, []byte(`{"error"`)) {
				d.check.fail("bulk line for AS%d is an error: %s", o.asns[j], bytes.TrimSpace(line))
				return wrongOutcome
			}
			if !d.check.footprint(keyOf(o.asns[j], o.bw), line) {
				return wrongOutcome
			}
		}
	}
	return okOutcome
}

// postChecks byte-compares a deterministic sample of served bodies with
// the answers computed offline: lookups against the build's origin
// table, single and bulk footprints against serve.RenderFootprint.
// It returns the number of requests made and how many failed.
func (d *requester) postChecks(ctx context.Context, lookups []op) (attempted, failed int64) {
	for i := range lookups {
		o := &lookups[i]
		attempted++
		want, err := lookupBody(o)
		if err != nil {
			d.check.fail("rendering the expected lookup body: %v", err)
			failed++
			continue
		}
		got, err := d.c.Get(ctx, "/v1/lookup?ip="+o.ip)
		if err != nil {
			failed++
			continue
		}
		if !bytes.Equal(got, want) {
			d.check.fail("lookup %s: served %q, want %q", o.ip, got, want)
			failed++
		}
	}
	keys := make([]fpKey, 0, len(d.check.want))
	for k := range d.check.want {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].asn != keys[j].asn {
			return keys[i].asn < keys[j].asn
		}
		return keys[i].bw < keys[j].bw
	})
	var bulk []int
	for _, k := range keys {
		attempted++
		body, err := d.c.Footprint(ctx, k.asn, k.bw)
		if err != nil {
			failed++
			continue
		}
		if !d.check.footprint(k, body) {
			failed++
		}
		if k.bw == defaultBW {
			bulk = append(bulk, k.asn)
		}
	}
	if len(bulk) > 0 {
		attempted++
		lines, err := d.c.Footprints(ctx, bulk, 0)
		if err != nil {
			return attempted, failed + 1
		}
		for j, line := range lines {
			if !bytes.Equal(line, d.check.want[keyOf(bulk[j], 0)]) {
				d.check.fail("bulk line for AS%d differs from the offline render", bulk[j])
				return attempted, failed + 1
			}
		}
	}
	return attempted, failed
}

// phaseLine formats a phase's request counts.
func phaseLine(name string, ss []sample, dur time.Duration, rate string) string {
	var failed, wrong int
	for _, s := range ss {
		switch s.oc {
		case failedOutcome:
			failed++
		case wrongOutcome:
			wrong++
		}
	}
	return fmt.Sprintf("phase %-9s attempted=%d succeeded=%d failed=%d wrong=%d duration=%.3fs %s",
		name, len(ss), len(ss)-failed-wrong, failed, wrong, dur.Seconds(), rate)
}
