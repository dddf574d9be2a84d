// Command benchmark is the repository's one performance instrument: five
// named workloads over the whole stack — kernels, formats and the parallel
// runtime in process; the serving tier, its journal, mutable overlays and the
// cluster router over loopback TCP — with end-to-end metrics that carry
// regression bounds and a per-layer ledger measured from outside. It drives
// public APIs only and claims no gain; later claims are read from it.
//
//	go run ./benchmark -seed 1                       every workload, both modes
//	go run ./benchmark -workload serve-small -seed 1 -seconds 10 -trace 0
//	go run ./benchmark -compare out/setA out/setB    two result sets, by the bounds
//
// One run measures one workload in one mode: with -trace 0 it prints every
// end-to-end metric of BENCHMARK.json, with -trace 1 every per-layer metric
// (probes plus a request-traced segment), and the last line of standard
// output is the result as one JSON object. See README.md in this directory.
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"strconv"
	"time"
)

// segments is how many timed segments a run's measuring time is cut into;
// every end-to-end value is the median of its per-segment values.
const segments = 5

// options are one run's settings.
type options struct {
	workload string
	seed     int64
	// seconds is the run's total measuring time.
	seconds float64
	trace   bool
	outDir  string
	// shrink scales the matrices and the triad arrays down. It is 1 in
	// every real run; the drift test sets it below 1 to check names and
	// units in seconds, and the values it then produces mean nothing.
	shrink float64
}

func (o options) segment() time.Duration {
	return time.Duration(o.seconds * float64(time.Second) / segments)
}

func main() {
	var o options
	var trace int
	var segment time.Duration
	var compare bool
	flag.StringVar(&o.workload, "workload", "", "workload to run; empty runs every workload in both modes, one process each")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the generated inputs (B panels, mutation script)")
	flag.Float64Var(&o.seconds, "seconds", 0, "measuring time of one run in seconds (default run_seconds of "+specFile+")")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics, probes and a traced segment")
	flag.DurationVar(&segment, "segment", 0, "length of one of the five timed segments; overrides -seconds")
	flag.StringVar(&o.outDir, "out", "benchmark/out", "directory for result JSON, trace files and journals")
	flag.BoolVar(&compare, "compare", false, "compare two result sets: -compare A B, each a result file or a directory of them")
	flag.Parse()
	o.trace, o.shrink = trace != 0, 1

	s, err := loadSpec(specFile)
	if err != nil {
		fatal(fmt.Errorf("run from the root of the checkout: %w", err))
	}
	switch {
	case compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two result sets, got %d", flag.NArg()))
		}
		worse, err := compareSets(s, flag.Arg(0), flag.Arg(1), os.Stdout)
		if err != nil {
			fatal(err)
		}
		if worse {
			os.Exit(2)
		}
		return
	case flag.NArg() != 0:
		fatal(fmt.Errorf("unexpected arguments %q", flag.Args()))
	}
	if o.seconds == 0 {
		o.seconds = float64(s.RunSeconds)
	}
	if segment > 0 {
		o.seconds = segments * segment.Seconds()
	}
	if o.seconds <= 0 || math.IsNaN(o.seconds) {
		fatal(fmt.Errorf("measuring time must be positive, got %g s", o.seconds))
	}
	if o.workload == "" {
		os.Exit(runAll(s, o))
	}
	if !s.hasWorkload(o.workload) {
		fatal(fmt.Errorf("unknown workload %q", o.workload))
	}
	res, err := runWorkload(s, o, os.Stdout)
	if err != nil {
		fatal(err)
	}
	fmt.Println(res.contractLine())
	if !res.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}

// runAll runs every workload in both modes, each in a process of its own —
// the conditions the driver measures under, with no workload inheriting
// another's heap — and returns the worst exit code.
func runAll(s *spec, o options) int {
	self, err := os.Executable()
	if err != nil {
		fatal(err)
	}
	code := 0
	for _, wl := range s.Workloads {
		for _, trace := range []string{"0", "1"} {
			cmd := exec.Command(self, "-workload", wl.Name, "-seed", strconv.FormatInt(o.seed, 10),
				"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "-trace", trace, "-out", o.outDir)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s -trace %s: %v\n", wl.Name, trace, err)
				code = 1
			}
		}
	}
	return code
}

// calibrationTime is how long each of the two noise-guard calibrations runs.
const calibrationTime = 500 * time.Millisecond

// runWorkload measures one workload in one mode, writes its result (and,
// traced, its span file) under the output directory and prints the metrics.
func runWorkload(s *spec, o options, w io.Writer) (*runResult, error) {
	rec := newRecorder(s, o.trace)
	res := &runResult{Workload: o.workload, Seed: o.seed, Trace: o.trace, Seconds: o.seconds, Env: readEnv()}
	fmt.Fprintf(w, "%s: nproc=%d GOMAXPROCS=%d %s caches=%v seed=%d\n", o.workload,
		res.Env.NProc, res.Env.GOMAXPROCS, res.Env.GoVersion, res.Env.Caches, o.seed)
	calTime := time.Duration(float64(calibrationTime) * o.shrink)
	res.CalStart = calibrate(calTime)

	var err error
	if o.workload == wlKernelSweep {
		err = runSweep(o, res.Env, rec, w)
	} else {
		err = runServe(serveWorkloads[o.workload], o, rec, w)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", o.workload, err)
	}

	res.CalEnd = calibrate(calTime)
	res.Noisy = res.CalStart.differs(res.CalEnd)
	rec.finish(res)
	res.printTable(w, s)
	fmt.Fprintf(w, "  calibration start -> end: spin %.1f -> %.1f Mops/s, stream %.2f -> %.2f GB/s%s\n",
		res.CalStart.SpinMops, res.CalEnd.SpinMops, res.CalStart.StreamGBs, res.CalEnd.StreamGBs,
		map[bool]string{true: "  NOISY: differs by more than 10%, do not read this run as a regression", false: ""}[res.Noisy])
	if o.trace {
		rec.spans.printSelfTimes(w)
		path, err := rec.spans.writeChrome(o.outDir, o.workload)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(w, "  spans: %s\n", path)
	}
	path, err := res.write(o.outDir)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "  result: %s\n", path)
	return res, nil
}
