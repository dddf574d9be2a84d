// Package obs is the suite's metrics substrate: a process-wide registry of
// counters, gauges and histograms, a Prometheus text-format (v0.0.4)
// exposition writer, a stdlib-only HTTP server (/metrics, /healthz,
// /debug/vars, optional /debug/pprof) and a structured-logging layer on
// slog. Where internal/trace answers "where did the time go" for one run,
// obs answers "what is the system doing, continuously": the simulators
// export their modelled hardware counters (cache hits, DRAM bytes,
// coalescing, occupancy), the scheduling layer its dispatch and imbalance
// figures, and the campaign harness its live progress — all scrapeable
// mid-campaign through `spmmbench -serve`.
//
// Design constraints, in order (mirroring internal/trace):
//
//   - The hot path is lock-free and allocation-free: a metric is either a
//     handle resolved once (package-level var, registration at init) or a
//     value field of the component that counts it, attached to a registry
//     afterwards (Attach*); either way every Add/Set/Observe is one or two
//     atomic operations. The alloc audit (TestHotPathZeroAlloc) pins
//     0 allocs/op on the hot path.
//   - Registration is explicit and collision-checked: the same name must
//     always carry the same type and help text; a family never mixes metric
//     types; an attached value never shares its name. Misregistration
//     panics, like expvar.
//   - Exposition is deterministic: families sort by name, series within a
//     family sort by their label sets, so scrapers (and the golden test)
//     can rely on a stable schema.
package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing int64 metric. The zero value is
// usable but unregistered: hold it by value as a field of the component
// that counts (never copy it) and export it with Registry.AttachCounter, or
// obtain a process-wide registered counter via NewCounter.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by delta (negative deltas are ignored —
// counters are monotonic by contract).
func (c *Counter) Add(delta int64) {
	if c == nil || delta <= 0 {
		return
	}
	c.v.Add(delta)
}

// Inc increments the counter by one.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v.Add(1)
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a float64 metric that can go up and down. The zero value is
// usable (see Counter).
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add increments the gauge by delta (CAS loop; still allocation-free).
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current gauge value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// HistogramBounds are the fixed log-scale (decade) bucket upper bounds every
// histogram uses: 1e-9 .. 1e3, sized for seconds-valued observations from
// nanoseconds to kiloseconds. A fixed shared layout keeps Observe free of
// per-metric configuration and the exposition schema stable.
var HistogramBounds = []float64{
	1e-9, 1e-8, 1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1, 1e1, 1e2, 1e3,
}

const histBuckets = 14 // len(HistogramBounds) + the +Inf overflow bucket

// Histogram is a fixed-bucket log-scale histogram (see HistogramBounds).
// Observe is lock- and allocation-free: one atomic add for the bucket, one
// for the count, and a CAS loop for the float64 sum. The zero value is
// usable (see Counter).
type Histogram struct {
	counts  [histBuckets]atomic.Int64
	count   atomic.Int64
	sumBits atomic.Uint64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := 0
	for ; i < len(HistogramBounds); i++ {
		if v <= HistogramBounds[i] {
			break
		}
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// bucketCounts returns the cumulative per-bucket counts (Prometheus
// histograms are cumulative: bucket i counts observations <= bound i).
func (h *Histogram) bucketCounts() [histBuckets]int64 {
	var out [histBuckets]int64
	var cum int64
	for i := 0; i < histBuckets; i++ {
		cum += h.counts[i].Load()
		out[i] = cum
	}
	return out
}

type metricKind uint8

const (
	kindCounter metricKind = iota
	kindGauge
	kindGaugeFunc
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge, kindGaugeFunc:
		return "gauge"
	default:
		return "histogram"
	}
}

// metric is one registered series: a family name, an optional label set
// (kept as the literal `{...}` registration text) and the typed value.
type metric struct {
	name   string // full registration name, labels included
	family string // name up to the label block
	labels string // `name="value",...` inside the braces, "" when unlabeled
	help   string
	kind   metricKind
	ctr    *Counter
	gauge  *Gauge
	fn     func() float64
	hist   *Histogram
}

// Registry holds named metrics and renders them in Prometheus text format.
// Construct with NewRegistry, or use the process-wide Default registry the
// package-level constructors register into.
type Registry struct {
	mu       sync.Mutex
	byName   map[string]*metric
	families map[string]*metric // first-registered series per family
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: map[string]*metric{}, families: map[string]*metric{}}
}

// Default is the process-wide registry. Package-level constructors
// (NewCounter, NewGauge, NewGaugeFunc, NewHistogram) register into it and
// the /metrics endpoint serves it unless told otherwise.
var Default = NewRegistry()

// splitName separates a registration name into family and label text:
// `spmm_runs_total{status="ok"}` → (`spmm_runs_total`, `status="ok"`).
func splitName(name string) (family, labels string, err error) {
	family = name
	if i := strings.IndexByte(name, '{'); i >= 0 {
		if !strings.HasSuffix(name, "}") || i == len(name)-2 {
			return "", "", fmt.Errorf("obs: malformed label block in %q", name)
		}
		family, labels = name[:i], name[i+1:len(name)-1]
	}
	if family == "" {
		return "", "", fmt.Errorf("obs: empty metric name %q", name)
	}
	for i, r := range family {
		ok := r == '_' || r == ':' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(i > 0 && r >= '0' && r <= '9')
		if !ok {
			return "", "", fmt.Errorf("obs: invalid metric name %q", name)
		}
	}
	return family, labels, nil
}

// register creates or fetches the named series, enforcing the collision
// rules. It panics on misuse (wrong kind or malformed name): registration
// happens at package init in this repository, so failure is a programming
// error, caught by any test that imports the package.
func (r *Registry) register(name, help string, kind metricKind) *metric {
	return r.add(&metric{name: name, help: help, kind: kind}, true)
}

// add inserts m under its name. With share set an existing series of the
// same kind is returned instead (the New* constructors are idempotent);
// without it a taken name panics — an attached value belongs to exactly one
// instance, so a second one under its name would shadow or double-count.
func (r *Registry) add(m *metric, share bool) *metric {
	var err error
	if m.family, m.labels, err = splitName(m.name); err != nil {
		panic(err)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if old, ok := r.byName[m.name]; ok {
		if !share {
			panic(fmt.Sprintf("obs: %s attached twice", m.name))
		}
		if old.kind != m.kind {
			panic(fmt.Sprintf("obs: %s re-registered as %s (was %s)", m.name, m.kind, old.kind))
		}
		return old
	}
	if f, ok := r.families[m.family]; ok && f.kind.String() != m.kind.String() {
		panic(fmt.Sprintf("obs: family %s mixes %s and %s series", m.family, f.kind, m.kind))
	}
	switch {
	case m.kind == kindCounter && m.ctr == nil:
		m.ctr = &Counter{}
	case m.kind == kindGauge && m.gauge == nil:
		m.gauge = &Gauge{}
	case m.kind == kindHistogram && m.hist == nil:
		m.hist = &Histogram{}
	}
	r.byName[m.name] = m
	if _, ok := r.families[m.family]; !ok {
		r.families[m.family] = m
	}
	return m
}

// AttachCounter exports c — a field of the component that counts it —
// under name. Attaching under a name already registered panics: two
// instances never share or shadow a series.
func (r *Registry) AttachCounter(name, help string, c *Counter) {
	r.add(&metric{name: name, help: help, kind: kindCounter, ctr: c}, false)
}

// AttachGauge exports g under name (see AttachCounter).
func (r *Registry) AttachGauge(name, help string, g *Gauge) {
	r.add(&metric{name: name, help: help, kind: kindGauge, gauge: g}, false)
}

// AttachHistogram exports h under name (see AttachCounter).
func (r *Registry) AttachHistogram(name, help string, h *Histogram) {
	r.add(&metric{name: name, help: help, kind: kindHistogram, hist: h}, false)
}

// NewCounter returns the registered counter, creating it on first use. The
// name may carry a constant label block: `spmm_runs_total{status="ok"}`.
func (r *Registry) NewCounter(name, help string) *Counter {
	return r.register(name, help, kindCounter).ctr
}

// NewGauge returns the registered gauge, creating it on first use.
func (r *Registry) NewGauge(name, help string) *Gauge {
	return r.register(name, help, kindGauge).gauge
}

// NewGaugeFunc registers a gauge whose value is computed at scrape time by
// fn. Re-registering the same name replaces the function (the campaign
// harness re-registers its checkpoint-age gauge per campaign).
func (r *Registry) NewGaugeFunc(name, help string, fn func() float64) {
	m := r.register(name, help, kindGaugeFunc)
	r.mu.Lock()
	m.fn = fn
	r.mu.Unlock()
}

// NewHistogram returns the registered histogram, creating it on first use.
func (r *Registry) NewHistogram(name, help string) *Histogram {
	return r.register(name, help, kindHistogram).hist
}

// NewCounter registers into the Default registry.
func NewCounter(name, help string) *Counter { return Default.NewCounter(name, help) }

// NewGauge registers into the Default registry.
func NewGauge(name, help string) *Gauge { return Default.NewGauge(name, help) }

// NewGaugeFunc registers into the Default registry.
func NewGaugeFunc(name, help string, fn func() float64) { Default.NewGaugeFunc(name, help, fn) }

// NewHistogram registers into the Default registry.
func NewHistogram(name, help string) *Histogram { return Default.NewHistogram(name, help) }

// snapshot returns the registered series grouped by family, families sorted
// by name and series within a family sorted by label text — the stable
// order the exposition writer and the golden test rely on.
func (r *Registry) snapshot() [][]*metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	byFamily := map[string][]*metric{}
	for _, m := range r.byName {
		byFamily[m.family] = append(byFamily[m.family], m)
	}
	families := make([]string, 0, len(byFamily))
	for f := range byFamily {
		families = append(families, f)
	}
	sort.Strings(families)
	out := make([][]*metric, 0, len(families))
	for _, f := range families {
		series := byFamily[f]
		sort.Slice(series, func(i, j int) bool { return series[i].labels < series[j].labels })
		out = append(out, series)
	}
	return out
}
