package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// loadSet reads one result set: a result file, or a directory of them (a
// set of runs of one commit, typically ten seeds per workload). Only
// untraced runs are kept — they are the ones that carry end-to-end metrics.
func loadSet(path string) ([]runResult, error) {
	info, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	files := []string{path}
	if info.IsDir() {
		if files, err = filepath.Glob(filepath.Join(path, "*.json")); err != nil {
			return nil, err
		}
		sort.Strings(files)
	}
	var runs []runResult
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var r runResult
		if err := json.Unmarshal(raw, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		if r.Workload != "" && !r.Trace { // span files and traced runs are skipped
			runs = append(runs, r)
		}
	}
	if len(runs) == 0 {
		return nil, fmt.Errorf("%s: no untraced results", path)
	}
	return runs, nil
}

// samplesOf collects a metric's values for one workload over a set. With
// several runs the samples are the runs' values; with a single run they are
// that run's per-segment values.
func samplesOf(runs []runResult, workload, metric string) []float64 {
	var values []float64
	var single []float64
	for _, r := range runs {
		if r.Workload != workload {
			continue
		}
		if v, ok := r.Metrics[metric]; ok && v.Measured {
			values = append(values, v.Value)
			single = v.Samples
		}
	}
	if len(values) == 1 && len(single) >= 2 {
		return single
	}
	return values
}

// compareSets prints one row per workload and end-to-end metric: both sets'
// medians and quartiles, how much worse B is than A as a share of A's median
// (the base every ratio is printed with), the bound, and a verdict:
//
//	ok          B's median is no worse than A's by more than the bound
//	worse       it is, and the sets are steady enough to say so
//	unresolved  either set's quartile spread is wider than the bound, so the
//	            difference cannot be told from noise — unless every value of
//	            B reads better than every value of A, which is ok
//
// It reports whether any row is worse.
func compareSets(s *spec, pathA, pathB string, w io.Writer) (bool, error) {
	a, err := loadSet(pathA)
	if err != nil {
		return false, err
	}
	b, err := loadSet(pathB)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "A = %s (%d runs)   B = %s (%d runs)\n", pathA, len(a), pathB, len(b))
	fmt.Fprintf(w, "%-15s %-18s %-8s %12s %22s %12s %22s %22s %7s  %s\n", "workload", "metric", "unit",
		"A median", "A q1..q3", "B median", "B q1..q3", "B worse by (of A)", "bound", "verdict")
	anyWorse := false
	for _, wl := range s.Workloads {
		for _, m := range s.EndToEnd {
			sa, sb := samplesOf(a, wl.Name, m.Name), samplesOf(b, wl.Name, m.Name)
			if len(sa) == 0 || len(sb) == 0 {
				continue
			}
			medA, medB := median(sa), median(sb)
			a1, a3 := quartiles(sa)
			b1, b3 := quartiles(sb)
			worseBy := medB - medA
			allBetter := sorted(sb)[len(sb)-1] < sorted(sa)[0]
			if m.Better == "higher" {
				worseBy = medA - medB
				allBetter = sorted(sb)[0] > sorted(sa)[len(sa)-1]
			}
			share := 0.0
			if medA != 0 {
				share = worseBy / medA
			}
			verdict := "ok"
			switch {
			case allBetter:
			case max(spread(sa), spread(sb)) > m.Bound:
				verdict = "unresolved"
			case share > m.Bound:
				verdict = "worse"
				anyWorse = true
			}
			fmt.Fprintf(w, "%-15s %-18s %-8s %12.6g %22s %12.6g %22s %22s %6.1f%%  %s\n", wl.Name, m.Name, m.Unit,
				medA, fmt.Sprintf("%.5g..%.5g", a1, a3), medB, fmt.Sprintf("%.5g..%.5g", b1, b3),
				fmt.Sprintf("%+.2f%% of %.5g", 100*share, medA), 100*m.Bound, verdict)
		}
	}
	return anyWorse, nil
}
