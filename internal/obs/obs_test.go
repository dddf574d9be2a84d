package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeHistogramBasics(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("t_counter_total", "a counter")
	c.Add(3)
	c.Inc()
	c.Add(-5) // ignored: counters are monotonic
	if got := c.Value(); got != 4 {
		t.Fatalf("counter = %d, want 4", got)
	}
	if again := r.NewCounter("t_counter_total", "a counter"); again != c {
		t.Fatal("re-registration did not return the same counter")
	}

	g := r.NewGauge("t_gauge", "a gauge")
	g.Set(2.5)
	g.Add(-1)
	if got := g.Value(); got != 1.5 {
		t.Fatalf("gauge = %v, want 1.5", got)
	}

	h := r.NewHistogram("t_seconds", "a histogram")
	h.Observe(0.5e-3) // le 1e-3 bucket
	h.Observe(2)      // le 1e1 bucket
	h.Observe(5e6)    // +Inf overflow
	if h.Count() != 3 {
		t.Fatalf("hist count = %d, want 3", h.Count())
	}
	if math.Abs(h.Sum()-(0.5e-3+2+5e6)) > 1e-9 {
		t.Fatalf("hist sum = %v", h.Sum())
	}
	counts := h.bucketCounts()
	if counts[len(counts)-1] != 3 {
		t.Fatalf("+Inf cumulative count = %d, want 3", counts[len(counts)-1])
	}
}

func TestNilMetricHandlesAreNoOps(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	c.Add(1)
	c.Inc()
	g.Set(1)
	g.Add(1)
	h.Observe(1)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil metric handles must read as zero")
	}
}

func TestRegistrationCollisions(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("t_total", "help")
	mustPanic(t, "kind mismatch on the same name", func() {
		r.NewGauge("t_total", "help")
	})
	r.NewCounter(`t_labeled_total{status="ok"}`, "help")
	mustPanic(t, "family mixing counter and histogram", func() {
		r.NewHistogram(`t_labeled_total{status="bad"}`, "help")
	})
	mustPanic(t, "malformed label block", func() {
		r.NewCounter(`t_bad{`, "help")
	})
	mustPanic(t, "invalid metric name", func() {
		r.NewCounter("9starts_with_digit", "help")
	})
	mustPanic(t, "empty name", func() {
		r.NewCounter("", "help")
	})
}

func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s did not panic", what)
		}
	}()
	fn()
}

func TestGaugeFuncReRegistrationReplaces(t *testing.T) {
	r := NewRegistry()
	r.NewGaugeFunc("t_age_seconds", "help", func() float64 { return 1 })
	r.NewGaugeFunc("t_age_seconds", "help", func() float64 { return 2 })
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "t_age_seconds 2\n") {
		t.Fatalf("re-registered gauge func not in effect:\n%s", b.String())
	}
}

func TestConcurrentUpdates(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("t_conc_total", "")
	g := r.NewGauge("t_conc_gauge", "")
	h := r.NewHistogram("t_conc_seconds", "")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
				g.Add(1)
				h.Observe(0.001)
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Fatalf("counter = %d, want 8000", c.Value())
	}
	if g.Value() != 8000 {
		t.Fatalf("gauge = %v, want 8000", g.Value())
	}
	if h.Count() != 8000 {
		t.Fatalf("hist count = %d, want 8000", h.Count())
	}
	if math.Abs(h.Sum()-8) > 1e-9 {
		t.Fatalf("hist sum = %v, want 8", h.Sum())
	}
}

// TestHotPathZeroAlloc is the registry's alloc audit, mirroring the
// tracer's: once a handle is registered, Add/Set/Observe must never reach
// the heap — the contract that lets the simulators and kernels update
// metrics inside their hot loops.
func TestHotPathZeroAlloc(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("t_alloc_total", "")
	g := r.NewGauge("t_alloc_gauge", "")
	h := r.NewHistogram("t_alloc_seconds", "")
	if n := testing.AllocsPerRun(100, func() {
		c.Add(1)
		c.Inc()
		g.Set(3.5)
		g.Add(0.5)
		h.Observe(1e-4)
	}); n != 0 {
		t.Fatalf("metric hot path allocates %v times per op, want 0", n)
	}
	// The attached-value path: metrics held by value in their owner's
	// struct, exported afterwards — same atomics, no indirection added.
	var owner struct {
		c Counter
		g Gauge
		h Histogram
	}
	r.AttachCounter("t_attached_total", "", &owner.c)
	r.AttachGauge("t_attached_gauge", "", &owner.g)
	r.AttachHistogram("t_attached_seconds", "", &owner.h)
	if n := testing.AllocsPerRun(100, func() {
		owner.c.Inc()
		owner.g.Set(3.5)
		owner.h.Observe(1e-4)
	}); n != 0 {
		t.Fatalf("attached metric hot path allocates %v times per op, want 0", n)
	}
}

// TestAttachExportsTheOwnersValue pins the attach contract: the registry
// renders the very value its owner increments (attached before or after the
// first increment), and a name that is already taken — by another attach or
// by a New* registration — panics instead of shadowing or sharing.
func TestAttachExportsTheOwnersValue(t *testing.T) {
	r := NewRegistry()
	var c Counter
	c.Add(3)
	r.AttachCounter("t_owned_total", "Owned.", &c)
	c.Inc()
	var buf strings.Builder
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "# HELP t_owned_total Owned.\n# TYPE t_owned_total counter\nt_owned_total 4\n") {
		t.Fatalf("attached counter not rendered from its owner's value:\n%s", buf.String())
	}
	mustPanic := func(what string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", what)
			}
		}()
		fn()
	}
	var other Counter
	mustPanic("second attach under one name", func() { r.AttachCounter("t_owned_total", "Owned.", &other) })
	r.NewCounter("t_shared_total", "")
	mustPanic("attach over a registered name", func() { r.AttachCounter("t_shared_total", "", &other) })
	var g Gauge
	mustPanic("attach mixing kinds in a family", func() { r.AttachGauge(`t_owned_total{x="1"}`, "", &g) })
}

func TestHistogramBucketAssignment(t *testing.T) {
	h := &Histogram{}
	h.Observe(1e-9)   // exactly on the first bound → bucket 0
	h.Observe(1.5e-9) // just above → bucket 1
	counts := h.bucketCounts()
	if counts[0] != 1 {
		t.Fatalf("bucket[0] cumulative = %d, want 1", counts[0])
	}
	if counts[1] != 2 {
		t.Fatalf("bucket[1] cumulative = %d, want 2", counts[1])
	}
}
