package obs

import (
	"sync"
	"testing"
)

func TestCounterRegistryIdentity(t *testing.T) {
	r := New()
	a := r.Counter("x_total")
	b := r.Counter("x_total")
	if a != b {
		t.Fatal("same name should return the same counter")
	}
	a.Add(2)
	b.Inc()
	if got := r.Counter("x_total").Value(); got != 3 {
		t.Fatalf("value = %d, want 3", got)
	}
}

func TestLabelOrderCanonical(t *testing.T) {
	r := New()
	a := r.Counter("y_total", "b", "2", "a", "1")
	b := r.Counter("y_total", "a", "1", "b", "2")
	if a != b {
		t.Fatal("label order must not create distinct series")
	}
	if a.labels != `{a="1",b="2"}` {
		t.Fatalf("labels rendered %q, want sorted", a.labels)
	}
}

func TestLabelEscaping(t *testing.T) {
	r := New()
	c := r.Counter("z_total", "k", "a\"b\\c\nd")
	want := `{k="a\"b\\c\nd"}`
	if c.labels != want {
		t.Fatalf("labels = %q, want %q", c.labels, want)
	}
}

func TestGauge(t *testing.T) {
	r := New()
	g := r.Gauge("g")
	g.Set(2.5)
	g.Add(1.5)
	if got := g.Value(); got != 4 {
		t.Fatalf("gauge = %v, want 4", got)
	}
}

// TestGaugeSetMax: SetMax ratchets monotonically — lower values never
// move the gauge, higher ones do, and a nil gauge is a no-op (the
// streaming pipeline publishes its peak watermarks through this).
func TestGaugeSetMax(t *testing.T) {
	r := New()
	g := r.Gauge("peak")
	g.SetMax(5)
	if got := g.Value(); got != 5 {
		t.Fatalf("gauge = %v, want 5", got)
	}
	g.SetMax(3)
	if got := g.Value(); got != 5 {
		t.Fatalf("SetMax(3) lowered the gauge to %v", got)
	}
	g.SetMax(9.5)
	if got := g.Value(); got != 9.5 {
		t.Fatalf("gauge = %v, want 9.5", got)
	}
	var nilG *Gauge
	nilG.SetMax(1) // must not panic
}

// TestNilRegistryIsNoOp proves the disabled state: every handle off a nil
// registry is nil and every method on it is a safe no-op.
func TestNilRegistryIsNoOp(t *testing.T) {
	var r *Registry
	c := r.Counter("a")
	g := r.Gauge("b")
	h := r.Histogram("c", LatencyBuckets())
	if c != nil || g != nil || h != nil {
		t.Fatal("nil registry must hand out nil handles")
	}
	c.Add(1)
	c.Inc()
	g.Set(1)
	g.Add(1)
	h.Observe(1)
	r.RegisterFunnel(NewFunnel("f"))
	if got := r.Snapshot(); len(got.Counters) != 0 {
		t.Fatal("nil registry snapshot must be empty")
	}
	if got := c.Value(); got != 0 {
		t.Fatalf("nil counter value = %d", got)
	}
}

// TestDisabledPathAllocationFree is the acceptance criterion for the
// disabled state: instrumentation calls through nil handles must not
// allocate.
func TestDisabledPathAllocationFree(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	var st *Stage
	if n := testing.AllocsPerRun(1000, func() {
		c.Add(1)
		g.Set(2)
		h.Observe(3)
		st.In(1)
		st.Drop("x", 1)
	}); n != 0 {
		t.Fatalf("disabled handles allocated %.1f allocs/op, want 0", n)
	}
}

// TestConcurrentCounters exercises every atomic under the race detector.
func TestConcurrentCounters(t *testing.T) {
	r := New()
	c := r.Counter("conc_total")
	g := r.Gauge("conc_gauge")
	h := r.Histogram("conc_hist", []float64{1, 2, 3})
	f := NewFunnel("conc")
	st := f.Stage("s").DeclareReasons("r")
	r.RegisterFunnel(f)

	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(float64(i % 4))
				st.In(1)
				if i%2 == 0 {
					st.Drop("r", 1)
				} else {
					st.Out(1)
				}
			}
		}(w)
	}
	wg.Wait()

	if got := c.Value(); got != workers*per {
		t.Fatalf("counter = %d, want %d", got, workers*per)
	}
	if got := g.Value(); got != workers*per {
		t.Fatalf("gauge = %v, want %d", got, workers*per)
	}
	if got := h.Count(); got != workers*per {
		t.Fatalf("histogram count = %d, want %d", got, workers*per)
	}
	if err := f.Check(); err != nil {
		t.Fatalf("funnel invariant violated after concurrent accounting: %v", err)
	}
}
