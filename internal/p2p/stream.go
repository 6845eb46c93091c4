package p2p

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"eyeballas/internal/astopo"
	"eyeballas/internal/geo"
	"eyeballas/internal/ipnet"
	"eyeballas/internal/rng"
)

// PeerStream is a pull iterator over crawled peers, the ingestion shape
// that lets the pipeline consume a crawl without materializing it.
//
// Next follows the io.Reader convention: it fills buf with up to
// len(buf) peers, returns how many it wrote, and returns io.EOF —
// possibly alongside a final short batch — when the stream is
// exhausted. On any other error the peers copied into buf must be
// discarded: a failed stream yields no partial crawl.
type PeerStream interface {
	Next(buf []Peer) (int, error)
}

// PeerSource opens peer streams. Stream must be replayable: every call
// yields a stream delivering the identical peer sequence, which is what
// lets the pipeline's single-DB fallback rerun ingestion without ever
// holding the crawl in memory. Sources over generated crawls get this
// for free — rng.Source.Split/SplitN derive child streams purely from
// the parent's seed — and slice- or file-backed sources are trivially
// re-readable.
type PeerSource interface {
	Stream(ctx context.Context) (PeerStream, error)
}

// SlicePeers adapts an in-memory peer slice (e.g. Crawl.Peers) into a
// PeerSource. Each Stream call returns a fresh cursor over the same
// backing slice; the peers are not copied.
func SlicePeers(peers []Peer) PeerSource { return slicePeers{peers} }

type slicePeers struct{ peers []Peer }

func (s slicePeers) Stream(context.Context) (PeerStream, error) {
	return &sliceStream{peers: s.peers}, nil
}

type sliceStream struct {
	peers []Peer
	off   int
}

func (s *sliceStream) Next(buf []Peer) (int, error) {
	n := copy(buf, s.peers[s.off:])
	s.off += n
	if s.off == len(s.peers) {
		return n, io.EOF
	}
	return n, nil
}

// NewCrawlSource returns a generative PeerSource: each Stream call
// replays the three crawls over the world unit by unit, delivering
// exactly the peer sequence Run would materialize — Run itself is a
// collect loop over this source. Per-stream memory is one crawl unit
// (a single (AS, app) pair), not the crawl.
//
// Replayability holds because the per-unit RNG children are derived
// purely from src's seed (never from consumed state), so a second
// Stream call re-generates the identical sequence. Fault injection
// (cfg.Faults) keys every decision by peer identity, so it is equally
// schedule- and batch-independent. Obs counters are emitted per stream
// — a fallback rerun counts its peers again, which is what actually
// happened.
func NewCrawlSource(w *astopo.World, cfg Config, src *rng.Source) PeerSource {
	return &crawlSource{w: w, cfg: cfg, src: src}
}

type crawlSource struct {
	w   *astopo.World
	cfg Config
	src *rng.Source
}

func (c *crawlSource) Stream(ctx context.Context) (PeerStream, error) {
	if err := c.cfg.validate(); err != nil {
		return nil, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	return &crawlStream{
		ctx:  ctx,
		ases: c.w.ASes(),
		cs:   newCrawlState(c.w, c.cfg),
		src:  c.src,
	}, nil
}

type crawlStream struct {
	ctx  context.Context
	ases []*astopo.AS
	cs   *crawlState
	src  *rng.Source

	ai, appi int    // cursor over (AS, app) units, app-major within AS
	pending  []Peer // current unit's undelivered peers
	off      int
	done     bool
}

func (s *crawlStream) Next(buf []Peer) (int, error) {
	if s.done {
		return 0, io.EOF
	}
	n := 0
	for n < len(buf) {
		if s.off < len(s.pending) {
			c := copy(buf[n:], s.pending[s.off:])
			n += c
			s.off += c
			continue
		}
		s.pending = s.pending[:0]
		s.off = 0
		if s.ai >= len(s.ases) {
			s.done = true
			return n, io.EOF
		}
		a := s.ases[s.ai]
		if s.appi == 0 {
			if a.Customers <= 0 {
				s.ai++
				continue
			}
			// Cancellation granularity matches Run: between ASes.
			if err := s.ctx.Err(); err != nil {
				s.done = true
				return 0, err
			}
		}
		app := Apps[s.appi]
		if s.appi++; s.appi == len(Apps) {
			s.appi = 0
			s.ai++
		}
		s.cs.unit(a, app, s.src, func(p Peer) { s.pending = append(s.pending, p) })
	}
	return n, nil
}

// ParseApp is the inverse of App.String.
func ParseApp(s string) (App, error) {
	for _, app := range Apps {
		if app.String() == s {
			return app, nil
		}
	}
	return 0, fmt.Errorf("p2p: unknown app %q", s)
}

// peersHeader guards peer files against being fed some other text file.
const peersHeader = "eyeballas-peers/1"

// WritePeers drains src into w in the textual peers-file format (one
// header line, then "ip app asn lat lon" per peer; coordinates use
// shortest-round-trip formatting, so a file round-trip is bit-exact).
// It returns the number of peers written. Memory is O(batch): the
// source is streamed, never materialized.
func WritePeers(ctx context.Context, w io.Writer, src PeerSource) (int, error) {
	st, err := src.Stream(ctx)
	if err != nil {
		return 0, err
	}
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(peersHeader + "\n"); err != nil {
		return 0, err
	}
	buf := make([]Peer, 4096)
	total := 0
	for {
		n, serr := st.Next(buf)
		if serr != nil && serr != io.EOF {
			return 0, serr
		}
		for i := 0; i < n; i++ {
			p := &buf[i]
			line := p.IP.String() + " " + p.App.String() + " " +
				strconv.Itoa(int(p.TrueASN)) + " " +
				strconv.FormatFloat(p.TrueLoc.Lat, 'g', -1, 64) + " " +
				strconv.FormatFloat(p.TrueLoc.Lon, 'g', -1, 64) + "\n"
			if _, err := bw.WriteString(line); err != nil {
				return 0, err
			}
		}
		total += n
		if serr == io.EOF {
			return total, bw.Flush()
		}
	}
}

// FileSource reads a peers file written by WritePeers. Every Stream
// call re-opens the file, so the source is replayable; parsing is
// line-at-a-time, so memory stays O(batch) regardless of file size.
// The peers must come from the same world the pipeline's databases and
// BGP tables were built over — the file stores ground-truth locations
// the geolocation simulators key on.
func FileSource(path string) PeerSource { return fileSource{path} }

type fileSource struct{ path string }

func (f fileSource) Stream(context.Context) (PeerStream, error) {
	fh, err := os.Open(f.path)
	if err != nil {
		return nil, err
	}
	sc := bufio.NewScanner(fh)
	if !sc.Scan() || sc.Text() != peersHeader {
		fh.Close()
		return nil, fmt.Errorf("p2p: %s is not a peers file (missing %q header)", f.path, peersHeader)
	}
	return &fileStream{f: fh, sc: sc, path: f.path}, nil
}

type fileStream struct {
	f    *os.File
	sc   *bufio.Scanner
	path string
	line int
	done bool
}

func (s *fileStream) Next(buf []Peer) (int, error) {
	if s.done {
		return 0, io.EOF
	}
	n := 0
	for n < len(buf) {
		if !s.sc.Scan() {
			s.done = true
			err := s.sc.Err()
			s.f.Close()
			if err != nil {
				return 0, err
			}
			return n, io.EOF
		}
		s.line++
		p, err := parsePeerLine(s.sc.Text())
		if err != nil {
			s.done = true
			s.f.Close()
			return 0, fmt.Errorf("p2p: %s:%d: %w", s.path, s.line+1, err)
		}
		buf[n] = p
		n++
	}
	return n, nil
}

func parsePeerLine(line string) (Peer, error) {
	f := strings.Fields(line)
	if len(f) != 5 {
		return Peer{}, fmt.Errorf("want 5 fields, got %d", len(f))
	}
	ip, err := ipnet.ParseAddr(f[0])
	if err != nil {
		return Peer{}, err
	}
	app, err := ParseApp(f[1])
	if err != nil {
		return Peer{}, err
	}
	asn, err := strconv.Atoi(f[2])
	if err != nil {
		return Peer{}, fmt.Errorf("bad asn %q: %w", f[2], err)
	}
	lat, err := strconv.ParseFloat(f[3], 64)
	if err != nil {
		return Peer{}, fmt.Errorf("bad lat %q: %w", f[3], err)
	}
	lon, err := strconv.ParseFloat(f[4], 64)
	if err != nil {
		return Peer{}, fmt.Errorf("bad lon %q: %w", f[4], err)
	}
	return Peer{IP: ip, App: app, TrueASN: astopo.ASN(asn), TrueLoc: geo.Point{Lat: lat, Lon: lon}}, nil
}
