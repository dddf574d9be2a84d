package main

import (
	"io"
	"math"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestDrift keeps the program and BENCHMARK.json from drifting apart: every
// workload runs in both modes at 200 ms segments on shrunken inputs, and
// every declared name must come out exactly once with a finite value and its
// declared unit. Values are not checked — shrunken inputs make them
// meaningless — except that nothing may fail.
func TestDrift(t *testing.T) {
	s, err := loadSpec("../" + specFile)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(s.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(s.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(s.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	hasSetup := false
	for _, set := range [][]metricSpec{s.EndToEnd, s.PerLayer} {
		for _, m := range set {
			if !name.MatchString(m.Name) || !unit.MatchString(m.Unit) || seen[m.Name] {
				t.Errorf("metric %q (unit %q): bad or repeated name or unit", m.Name, m.Unit)
			}
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("metric %q: better = %q", m.Name, m.Better)
			}
			seen[m.Name] = true
		}
	}
	for _, m := range s.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("metric %q: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric in s, lower is better")
	}

	var mu sync.Mutex
	measuredSomewhere := map[string]bool{}
	// The workloads run side by side to keep the test short; they disturb
	// each other's timings, which the test does not read.
	t.Run("workloads", func(t *testing.T) {
		for _, wl := range s.Workloads {
			if !name.MatchString(wl.Name) || len(wl.Why) == 0 || len(wl.Why) > 200 {
				t.Errorf("workload %q: bad name or why", wl.Name)
			}
			if wl.Name != wlKernelSweep && serveWorkloads[wl.Name] == nil {
				t.Fatalf("workload %q is declared but not implemented", wl.Name)
			}
			t.Run(wl.Name, func(t *testing.T) {
				t.Parallel()
				for _, trace := range []bool{false, true} {
					o := options{workload: wl.Name, seed: 1, seconds: segments * 0.2, trace: trace,
						outDir: t.TempDir(), shrink: 0.05}
					if o.segment() != 200*time.Millisecond {
						t.Fatalf("segment = %v", o.segment())
					}
					res, err := runWorkload(s, o, io.Discard)
					if err != nil {
						t.Fatalf("trace=%v: %v", trace, err)
					}
					if res.Failed != 0 || !res.Correct {
						t.Errorf("trace=%v: %d of %d failed: %v", trace, res.Failed, res.Attempted, res.Failures)
					}
					declared := s.metrics(trace)
					if len(res.Metrics) != len(declared) {
						t.Errorf("trace=%v: %d metrics emitted, %d declared", trace, len(res.Metrics), len(declared))
					}
					for _, m := range declared {
						v, ok := res.Metrics[m.Name]
						switch {
						case !ok:
							t.Errorf("trace=%v: %s not emitted", trace, m.Name)
						case v.Unit != m.Unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
							t.Errorf("trace=%v: %s = %v %q, want a finite value in %q", trace, m.Name, v.Value, v.Unit, m.Unit)
						case !trace && (!v.Measured || v.Value == 0):
							t.Errorf("end-to-end %s = %v (measured %v), must be measured and never 0", m.Name, v.Value, v.Measured)
						}
						mu.Lock()
						measuredSomewhere[m.Name] = measuredSomewhere[m.Name] || v.Measured
						mu.Unlock()
					}
				}
			})
		}
	})
	_, triad, _ := triadPlan(readEnv(), 0.05)
	for _, m := range s.PerLayer {
		needsTriad := m.Name == "machine.triad_gbs" || strings.HasPrefix(m.Name, "kernels.roofline_frac.")
		if !measuredSomewhere[m.Name] && (triad || !needsTriad) {
			t.Errorf("per-layer %s is declared but no workload measures it", m.Name)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	// == [3.5, 13.5, 31.0]
	q1, q3 := quartiles([]float64{46, 1, 22, 2, 37, 4, 29, 7, 16, 11})
	if q1 != 3.5 || q3 != 31 {
		t.Errorf("quartiles = %v, %v; want 3.5, 31", q1, q3)
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

func TestCoverageIsUnionOfChildren(t *testing.T) {
	kids := []span{{Start: 10, End: 30}, {Start: 20, End: 40}, {Start: 60, End: 120}}
	if got := coverage(kids, 0, 100); got != 70 {
		t.Errorf("coverage = %v, want 70 (10..40 and 60..100)", got)
	}
}
