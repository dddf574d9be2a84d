package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sync"
)

// metricValue is one reported metric. Value is what the run reports;
// Samples are the per-segment (or per-repeat) values it is the median of,
// kept so quartiles can be printed beside it and -compare can judge a
// single run; N is the number of observations (requests, calls) behind it.
type metricValue struct {
	Value   float64   `json:"value"`
	Unit    string    `json:"unit"`
	Samples []float64 `json:"samples,omitempty"`
	N       int       `json:"n,omitempty"`
	// Measured is false for a per-layer metric whose layer this workload
	// bypasses: it is printed as 0 so every declared name appears once.
	Measured bool `json:"measured"`
}

// check is one layer-separation statement evaluated on a run. Checks are
// reported, never fatal: they describe where time goes today, and a later
// change that legitimately shifts the balance must not break the instrument.
type check struct {
	Name string `json:"name"`
	OK   bool   `json:"ok"`
	Note string `json:"note"`
}

// runResult is what one run of one workload writes to -out.
type runResult struct {
	Workload string      `json:"workload"`
	Seed     int64       `json:"seed"`
	Trace    bool        `json:"trace"`
	Seconds  float64     `json:"seconds"`
	Env      envInfo     `json:"env"`
	CalStart calibration `json:"calibration_start"`
	CalEnd   calibration `json:"calibration_end"`
	// Noisy is set when the two calibrations differ by more than 10%: a
	// run on a stolen CPU is not to be read as a regression.
	Noisy     bool                   `json:"noisy"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Failures  []string               `json:"failures,omitempty"`
	Checks    []check                `json:"checks,omitempty"`
	Metrics   map[string]metricValue `json:"metrics"`
	// Claim is always null: the benchmark is the instrument later claims
	// are read from and claims no gain itself.
	Claim *string `json:"claim"`
}

// recorder collects one run's metrics, operation counts and spans. Metric
// setters are called from the run's main goroutine; count and fail may be
// called from client goroutines.
type recorder struct {
	spec  *spec
	trace bool
	units map[string]string

	mu       sync.Mutex
	metrics  map[string]metricValue
	attempt  int
	failed   int
	failures []string
	checks   []check
	spans    *spanLog
}

func newRecorder(s *spec, trace bool) *recorder {
	r := &recorder{spec: s, trace: trace, units: map[string]string{},
		metrics: map[string]metricValue{}, spans: newSpanLog(trace)}
	for _, m := range s.metrics(trace) {
		r.units[m.Name] = m.Unit
	}
	return r
}

// set records a metric measured once. Names the run's mode does not print
// (an end-to-end name in a traced run, or the reverse) are dropped, so
// workloads can report what they measured without asking which mode is on.
func (r *recorder) set(name string, v float64, n int) {
	r.setSamples(name, v, nil, n)
}

// setMedian records a metric as the median of its per-segment samples.
func (r *recorder) setMedian(name string, samples []float64, n int) {
	r.setSamples(name, median(samples), samples, n)
}

func (r *recorder) setSamples(name string, v float64, samples []float64, n int) {
	unit, ok := r.units[name]
	if !ok {
		if !r.declaredAnywhere(name) {
			r.fail("metric %q is not declared in %s", name, specFile)
		}
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.metrics[name]; dup {
		r.failLocked(fmt.Sprintf("metric %q emitted twice", name))
		return
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		r.failLocked(fmt.Sprintf("metric %q is not finite", name))
		v = 0
	}
	r.metrics[name] = metricValue{Value: v, Unit: unit, Samples: samples, N: n, Measured: true}
}

func (r *recorder) declaredAnywhere(name string) bool {
	for _, set := range [][]metricSpec{r.spec.EndToEnd, r.spec.PerLayer} {
		for _, m := range set {
			if m.Name == name {
				return true
			}
		}
	}
	return false
}

// count adds attempted operations; fail adds one failed operation (refused,
// non-2xx, bit-wrong, or an instrument error) with a reason.
func (r *recorder) count(n int) {
	r.mu.Lock()
	r.attempt += n
	r.mu.Unlock()
}

func (r *recorder) fail(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.failLocked(fmt.Sprintf(format, args...))
}

func (r *recorder) failLocked(msg string) {
	r.failed++
	if len(r.failures) < 20 {
		r.failures = append(r.failures, msg)
		fmt.Fprintln(os.Stderr, "benchmark: FAIL:", msg)
	}
}

func (r *recorder) check(name string, ok bool, format string, args ...any) {
	r.checks = append(r.checks, check{Name: name, OK: ok, Note: fmt.Sprintf(format, args...)})
}

// finish closes the metric set against the spec: every end-to-end metric
// must have been measured; a per-layer metric the workload did not measure
// is printed as 0 with Measured false.
func (r *recorder) finish(res *runResult) {
	for _, m := range r.spec.metrics(r.trace) {
		if _, ok := r.metrics[m.Name]; ok {
			continue
		}
		if !r.trace {
			r.fail("end-to-end metric %q was not measured", m.Name)
		}
		r.metrics[m.Name] = metricValue{Unit: m.Unit}
	}
	res.Metrics = r.metrics
	res.Attempted = max(r.attempt, 1)
	res.Failed = r.failed
	res.Failures = r.failures
	res.Checks = r.checks
	res.Correct = r.failed == 0
}

// printTable writes the run's metrics by name with unit, quartiles of the
// per-segment samples and the observation count.
func (res *runResult) printTable(w io.Writer, s *spec) {
	fmt.Fprintf(w, "\n%s  seed=%d trace=%v seconds=%g  attempted=%d failed=%d failed_frac=%g noisy=%v\n",
		res.Workload, res.Seed, res.Trace, res.Seconds, res.Attempted, res.Failed,
		float64(res.Failed)/float64(res.Attempted), res.Noisy)
	fmt.Fprintf(w, "  %-34s %14s %-8s %14s %14s %8s\n", "metric", "value", "unit", "q1", "q3", "n")
	for _, m := range s.metrics(res.Trace) {
		v := res.Metrics[m.Name]
		if !v.Measured {
			fmt.Fprintf(w, "  %-34s %14s %-8s   (layer not on this workload's path)\n", m.Name, "0", m.Unit)
			continue
		}
		q1, q3 := "", ""
		if len(v.Samples) >= 2 {
			a, b := quartiles(v.Samples)
			q1, q3 = fmt.Sprintf("%.6g", a), fmt.Sprintf("%.6g", b)
		}
		fmt.Fprintf(w, "  %-34s %14.6g %-8s %14s %14s %8d\n", m.Name, v.Value, v.Unit, q1, q3, v.N)
	}
	for _, c := range res.Checks {
		verdict := "ok"
		if !c.OK {
			verdict = "NOT MET"
		}
		fmt.Fprintf(w, "  check %-28s %-8s %s\n", c.Name, verdict, c.Note)
	}
}

// contractLine is the last line of standard output: exactly the keys the
// driver reads.
func (res *runResult) contractLine() string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]mv{}}
	for name, v := range res.Metrics {
		out.Metrics[name] = mv{v.Value, v.Unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		// Values were checked finite when recorded; this is a bug.
		panic(err)
	}
	return string(line)
}

// write stores the run under dir as <workload>-seed<n>-trace<0|1>.json.
func (res *runResult) write(dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	t := 0
	if res.Trace {
		t = 1
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d.json", res.Workload, res.Seed, t))
	raw, err := json.MarshalIndent(res, "", " ")
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, append(raw, '\n'), 0o644)
}
