// Command spmmbench benchmarks a single SpMM kernel on one matrix — the
// suite's equivalent of the thesis' per-kernel benchmark binaries. The
// flags mirror the thesis CLI (§4.3): repetitions, thread count, block
// size, the k-loop length, an optional thread-count list for the Study 3.1
// sweep, and a debug flag.
//
// The matrix is either a registry name (one of the thesis' 14, synthesised
// on the fly, optionally scaled) or a MatrixMarket file.
//
// Examples:
//
//	spmmbench -kernel csr-omp -matrix cant -scale 0.1 -t 8 -k 128
//	spmmbench -kernel bcsr-serial -matrix path/to/matrix.mtx -b 4
//	spmmbench -kernel csr-omp -matrix dw4096 -threads-list 2,4,8,16
//	spmmbench -kernel csr-gpu -matrix cant -scale 0.05 -device h100
//	spmmbench -list
//
// Campaign mode: when -kernel or -matrix holds a comma-separated list, or
// any of the resilience flags (-timeout, -retries, -mem-budget, -journal,
// -resume) is set, the cross product runs through the resilient campaign
// harness — panicking or failing runs are contained and recorded instead of
// aborting the sweep, transient failures retry with backoff, over-budget
// formats degrade to CSR/COO, and -journal/-resume checkpoint the campaign:
//
//	spmmbench -kernel csr-omp,ell-omp -matrix cant,torso1 \
//	    -timeout 60s -retries 2 -mem-budget 1GiB -journal camp.jsonl -resume
//
// Scheduling: -schedule balanced switches the CPU-parallel kernels from
// row-static chunks (the thesis' OpenMP baseline) to nonzero-balanced
// chunks. Every parallel kernel runs on one persistent worker pool, sized
// to the largest thread count the run uses — in campaign mode the whole
// sweep reuses the same warmed workers:
//
//	spmmbench -kernel csr-omp -matrix torso1 -t 8 -schedule balanced
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	_ "net/http/pprof" // -pprof opt-in profiling endpoint
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/gpusim"
	"repro/internal/harness"
	"repro/internal/kernels"
	"repro/internal/matrix"
	"repro/internal/metrics"
	"repro/internal/mmio"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/trace"
)

func main() {
	var (
		kernelName  = flag.String("kernel", "csr-serial", "kernel registry name (see -list)")
		matrixName  = flag.String("matrix", "cant", "registry matrix name or path to a .mtx file")
		scale       = flag.Float64("scale", 0.05, "scale factor for registry matrices")
		reps        = flag.Int("n", 5, "timed repetitions of the calculation")
		threads     = flag.Int("t", 32, "thread count for parallel kernels")
		block       = flag.Int("b", 4, "block size for blocked formats")
		kArg        = flag.Int("k", 128, "k-loop length (columns of B)")
		threadsList = flag.String("threads-list", "", "comma-separated thread counts: run the best-thread sweep")
		device      = flag.String("device", "h100", "simulated GPU for gpu kernels: h100 or a100")
		verify      = flag.Bool("verify", true, "verify against the COO reference kernel")
		debug       = flag.Bool("debug", false, "verbose output")
		list        = flag.Bool("list", false, "list available kernels and matrices, then exit")

		schedule = flag.String("schedule", "static", "parallel work partition: static (equal rows, the thesis' OpenMP baseline) or balanced (equal nonzeros, for skewed matrices)")

		timeout   = flag.Duration("timeout", 0, "campaign: per-run timeout (0 disables)")
		retries   = flag.Int("retries", 0, "campaign: extra attempts for transient failures")
		memBudget = flag.String("mem-budget", "", "campaign: per-run format footprint budget, e.g. 512MiB")
		journal   = flag.String("journal", "", "campaign: JSONL checkpoint journal path")
		jnlNoSync = flag.Bool("journal-nosync", false, "campaign: skip the per-append journal fsync (faster, loses machine-crash durability)")
		resume    = flag.Bool("resume", false, "campaign: skip runs already recorded in -journal")

		traceOut  = flag.String("trace", "", "write a Chrome trace_event JSON of the run to this file (open in chrome://tracing or https://ui.perfetto.dev)")
		traceSum  = flag.Bool("trace-summary", false, "print the per-phase time summary table after the run")
		pprofAddr = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060) while the run executes")

		serveAddr = flag.String("serve", "", "serve /metrics (Prometheus), /healthz, /debug/vars and /debug/pprof on this address for the duration of the run, e.g. :9090 (use :0 for an ephemeral port)")
		logFormat = flag.String("log-format", "text", "structured log format on stderr: text or json")
		logLevel  = flag.String("log-level", "info", "log level: debug, info, warn or error")
	)
	flag.Parse()

	level, err := obs.ParseLogLevel(*logLevel)
	if err != nil {
		fatal(err)
	}
	logger, err := obs.NewLogger(os.Stderr, *logFormat, level)
	if err != nil {
		fatal(err)
	}

	// The observability endpoint lives for the whole run: scrape
	// http://<addr>/metrics mid-campaign to watch progress counters climb.
	var srv *obs.Server
	if *serveAddr != "" {
		srv, err = obs.Serve(*serveAddr, obs.ServerOpts{Pprof: true, Log: logger})
		if err != nil {
			fatal(err)
		}
		defer closeServer(srv, logger)
	}

	if *pprofAddr != "" {
		go func() {
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintln(os.Stderr, "spmmbench: pprof:", err)
			}
		}()
		fmt.Fprintf(os.Stderr, "spmmbench: pprof on http://%s/debug/pprof/\n", *pprofAddr)
	}

	// The widest region the run dispatches sizes its worker pool and, with
	// one pipeline lane, its tracer; the ring keeps the newest 32Ki spans
	// per lane.
	width := *threads
	for _, tok := range strings.Split(*threadsList, ",") {
		if v, err := strconv.Atoi(strings.TrimSpace(tok)); err == nil {
			width = max(width, v)
		}
	}
	var tracer *trace.Tracer
	if *traceOut != "" || *traceSum {
		tracer = trace.New(width+2, 1<<15)
		tracer.SetEnabled(true)
		parallel.SetTracer(tracer)
		defer func() {
			parallel.SetTracer(nil)
			if *traceOut != "" {
				f, err := os.Create(*traceOut)
				if err != nil {
					fatal(err)
				}
				if err := tracer.WriteChromeTrace(f); err != nil {
					f.Close()
					fatal(err)
				}
				if err := f.Close(); err != nil {
					fatal(err)
				}
				fmt.Fprintf(os.Stderr, "spmmbench: trace written to %s (%d spans)\n", *traceOut, tracer.Len())
			}
			if *traceSum {
				fmt.Println()
				if err := tracer.Summary().WriteTable(os.Stdout); err != nil {
					fatal(err)
				}
			}
		}()
	}

	var sched kernels.Schedule
	switch *schedule {
	case "static":
		sched = kernels.ScheduleStatic
	case "balanced":
		sched = kernels.ScheduleBalanced
	default:
		fatal(fmt.Errorf("unknown -schedule %q (static or balanced)", *schedule))
	}
	if *list {
		fmt.Println("spmm kernels:")
		for _, n := range core.Names() {
			fmt.Println("  " + n)
		}
		fmt.Println("matrices:")
		for _, n := range gen.Names() {
			fmt.Println("  " + n)
		}
		fmt.Println("inner loop:", matrix.InnerBody())
		return
	}

	pool := parallel.NewPool(width)
	defer pool.Close()

	campaign := *timeout > 0 || *retries > 0 || *memBudget != "" || *journal != "" || *resume ||
		strings.Contains(*kernelName, ",") || strings.Contains(*matrixName, ",")
	if campaign {
		if *threadsList != "" {
			fatal(fmt.Errorf("campaign mode does not combine with -threads-list"))
		}
		if *resume && *journal == "" {
			fatal(fmt.Errorf("-resume needs -journal to know what already ran"))
		}
		budget := int64(0)
		if *memBudget != "" {
			var err error
			budget, err = harness.ParseBytes(*memBudget)
			if err != nil {
				fatal(err)
			}
		}
		p := core.Params{Reps: *reps, Threads: *threads, BlockSize: *block, K: *kArg,
			Verify: *verify, Debug: *debug, Seed: 1, Schedule: sched, Pool: pool, Trace: tracer}
		cfg := harness.Config{
			Timeout: *timeout, Retries: *retries, MemBudget: budget,
			Journal: *journal, JournalNoSync: *jnlNoSync, Resume: *resume, Seed: 1, Logger: logger, Trace: tracer,
		}
		// SIGINT/SIGTERM cancels the campaign between runs (and inside
		// cancellation-aware kernels) and shuts the metrics server down with
		// it; on normal completion the deferred closeServer does the same.
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer stop()
		if srv != nil {
			go srv.CloseOn(ctx)
		}
		runCampaign(ctx, logger, splitList(*kernelName), splitList(*matrixName), *scale, *device, p, cfg)
		return
	}

	span := tracer.Start()
	a, err := loadMatrix(*matrixName, *scale)
	if err != nil {
		fatal(err)
	}
	tracer.EndDetail(0, trace.PhaseLoad, *matrixName, span, int64(a.NNZ()))

	opts := core.Options{}
	if strings.HasSuffix(*kernelName, "-gpu") {
		cfg := gpusim.H100Like()
		if *device == "a100" {
			cfg = gpusim.A100Like()
		}
		dev, err := gpusim.NewDevice(cfg)
		if err != nil {
			fatal(err)
		}
		opts.Device = dev
	}
	k, err := core.New(*kernelName, opts)
	if err != nil {
		fatal(err)
	}

	p := core.Params{
		Reps:      *reps,
		Threads:   *threads,
		BlockSize: *block,
		K:         *kArg,
		Verify:    *verify,
		Debug:     *debug,
		Seed:      1,
		Schedule:  sched,
		Pool:      pool,
		Trace:     tracer,
	}

	props := metrics.Compute(a)
	fmt.Printf("matrix: %s  (%dx%d, %d nonzeros, max %d, avg %.1f, ratio %.1f)\n",
		*matrixName, props.Rows, props.Cols, props.NNZ, props.MaxRow, props.AvgRow, props.Ratio)

	if *threadsList != "" {
		for _, tok := range strings.Split(*threadsList, ",") {
			v, err := strconv.Atoi(strings.TrimSpace(tok))
			if err != nil {
				fatal(fmt.Errorf("bad -threads-list entry %q: %w", tok, err))
			}
			p.ThreadList = append(p.ThreadList, v)
		}
		best, all, err := core.BestThreads(k, a, *matrixName, p)
		if err != nil {
			fatal(err)
		}
		t := metrics.NewTable("threads", "avg seconds", "MFLOPS")
		for _, r := range all {
			if r.Err != "" {
				t.AddRow(r.Threads, "-", "failed: "+r.Err)
				continue
			}
			t.AddRow(r.Threads, fmt.Sprintf("%.6f", r.AvgSeconds), fmt.Sprintf("%.1f", r.MFLOPS))
		}
		if err := t.Render(os.Stdout); err != nil {
			fatal(err)
		}
		fmt.Printf("best thread count: %d (%.1f MFLOPS)\n", all[best].Threads, all[best].MFLOPS)
		return
	}

	r, err := core.Run(k, a, *matrixName, p)
	if err != nil {
		fatal(err)
	}
	report(r, *debug)
}

func splitList(s string) []string {
	var out []string
	for _, tok := range strings.Split(s, ",") {
		if tok = strings.TrimSpace(tok); tok != "" {
			out = append(out, tok)
		}
	}
	return out
}

// closeServer gracefully shuts the observability endpoint down, bounding the
// drain of in-flight scrapes to two seconds.
func closeServer(srv *obs.Server, logger *slog.Logger) {
	if srv == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := srv.Close(ctx); err != nil {
		logger.Warn("metrics server shutdown", "err", err)
	}
}

// runCampaign executes the kernels × matrices cross product through the
// resilient harness and reports per-run lines plus the campaign counters.
// ctx cancels the campaign between runs (SIGINT wiring lives in main).
func runCampaign(ctx context.Context, logger *slog.Logger, kernels, matrices []string,
	scale float64, device string, p core.Params, cfg harness.Config) {
	h, err := harness.New(cfg)
	if err != nil {
		fatal(err)
	}
	defer h.Close()

	var plan []harness.Spec
	for _, mName := range matrices {
		for _, kName := range kernels {
			opts := core.Options{}
			if strings.Contains(kName, "-gpu") {
				gcfg := gpusim.H100Like()
				if device == "a100" {
					gcfg = gpusim.A100Like()
				}
				dev, err := gpusim.NewDevice(gcfg)
				if err != nil {
					fatal(err)
				}
				opts.Device = dev
			}
			mName := mName
			plan = append(plan, harness.Spec{
				Kernel: kName,
				Matrix: mName,
				Load: func() (*matrix.COO[float64], error) {
					span := cfg.Trace.Start()
					m, err := loadMatrix(mName, scale)
					if err == nil {
						cfg.Trace.EndDetail(0, trace.PhaseLoad, mName, span, int64(m.NNZ()))
					}
					return m, err
				},
				Opts:   opts,
				Params: p,
			})
		}
	}

	start := time.Now()
	logger.Info("campaign starting", "runs", len(plan),
		"kernels", len(kernels), "matrices", len(matrices))
	outs, execErr := h.Execute(ctx, plan)
	for _, o := range outs {
		switch o.Status {
		case harness.StatusFailed:
			fmt.Printf("%-8s  %-18s %-16s %v\n", o.Status, o.Spec.Kernel, o.Spec.Matrix, o.Err)
		case harness.StatusDegraded:
			fmt.Printf("%-8s  %-18s %-16s %.1f MFLOPS (ran %s)\n",
				o.Status, o.Spec.Kernel, o.Spec.Matrix, o.Result.MFLOPS, o.RanKernel)
		case harness.StatusSkipped:
			if o.Result.MFLOPS > 0 {
				fmt.Printf("%-8s  %-18s %-16s %.1f MFLOPS (replayed from journal)\n",
					o.Status, o.Spec.Kernel, o.Spec.Matrix, o.Result.MFLOPS)
			} else {
				fmt.Printf("%-8s  %-18s %-16s previously failed (journaled)\n",
					o.Status, o.Spec.Kernel, o.Spec.Matrix)
			}
		default:
			fmt.Printf("%-8s  %-18s %-16s %.1f MFLOPS\n",
				o.Status, o.Spec.Kernel, o.Spec.Matrix, o.Result.MFLOPS)
		}
	}
	fmt.Printf("\ncampaign: %d runs in %v\n", len(outs), time.Since(start).Round(time.Millisecond))
	for _, cv := range h.Counters() {
		fmt.Printf("  %-10s %d\n", cv.Name, cv.Value)
	}
	if execErr != nil {
		fatal(execErr)
	}
}

func loadMatrix(name string, scale float64) (*matrix.COO[float64], error) {
	if strings.HasSuffix(name, ".mtx") {
		return mmio.ReadFile[float64](name)
	}
	m, _, err := gen.GenerateScaled(name, scale)
	return m, err
}

func report(r core.Result, debug bool) {
	fmt.Printf("kernel:        %s (format %s, %s)\n", r.Kernel, r.Format, r.Mode)
	fmt.Printf("parameters:    k=%d threads=%d block=%d\n", r.K, r.Threads, r.Block)
	fmt.Printf("format time:   %.6f s  (%d bytes)\n", r.FormatSeconds, r.FormatBytes)
	fmt.Printf("calc time:     avg %.6f s, min %.6f s\n", r.AvgSeconds, r.MinSeconds)
	fmt.Printf("performance:   %.1f MFLOPS (%.3f GFLOPS)\n", r.MFLOPS, r.MFLOPS/1e3)
	if r.Verified {
		fmt.Printf("verification:  ok (max abs diff %.3g)\n", r.MaxAbsDiff)
	} else {
		fmt.Println("verification:  skipped")
	}
	if debug {
		fmt.Printf("debug:         %+v\n", r)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "spmmbench:", err)
	os.Exit(1)
}
