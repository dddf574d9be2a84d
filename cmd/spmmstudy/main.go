// Command spmmstudy regenerates the evaluation studies of the thesis
// (Chapter 5): Table 5.1 plus Studies 1 through 9, printing the data series
// behind every figure as aligned text tables.
//
// Usage:
//
//	spmmstudy -study all
//	spmmstudy -study 1,5,7 -scale 0.1 -reps 5
//	spmmstudy -study props -scale 1
//	spmmstudy -study 3.1 -matrices cant,torso1
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/matrix"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/studies"
	"repro/internal/trace"
)

var unsafeChars = regexp.MustCompile(`[^a-zA-Z0-9._-]+`)

// writeCSVs stores each section as <dir>/study<id>_<n>_<slug>.csv — the CSV
// feed the thesis' plotting scripts consume.
func writeCSVs(dir, id string, sections []studies.Section) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for i, s := range sections {
		slug := unsafeChars.ReplaceAllString(strings.ToLower(s.Title), "_")
		if len(slug) > 60 {
			slug = slug[:60]
		}
		path := filepath.Join(dir, fmt.Sprintf("study%s_%02d_%s.csv", id, i, slug))
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := s.Table.WriteCSV(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}

func main() {
	var (
		study    = flag.String("study", "all", "study id: props, 1, 2, 3, 3.1, 4, 5, 6, 7, 8, 9, mem, sched, or a comma list, or 'all'")
		scale    = flag.Float64("scale", 0.05, "matrix scale factor for CPU studies (0 < s <= 1)")
		gpuScale = flag.Float64("gpuscale", 0.02, "matrix scale factor for simulated-GPU studies")
		reps     = flag.Int("reps", 3, "timed repetitions per kernel")
		matrices = flag.String("matrices", "", "comma-separated matrix subset (default: all 14)")
		verify   = flag.Bool("verify", false, "verify every kernel result against the COO reference")
		quiet    = flag.Bool("quiet", false, "suppress progress notes on stderr")
		csvDir   = flag.String("csv", "", "also write each section as a CSV file into this directory")
		chart    = flag.Bool("chart", false, "render bar charts (the figures' shape) instead of tables")

		traceOut = flag.String("trace", "", "write a Chrome trace_event JSON of the study run to this file (open in chrome://tracing or https://ui.perfetto.dev)")
		traceSum = flag.Bool("trace-summary", false, "print the per-phase time summary table after the studies")

		timeout   = flag.Duration("timeout", 0, "harness: per-benchmark timeout (0 disables)")
		retries   = flag.Int("retries", 0, "harness: extra attempts for transient failures")
		memBudget = flag.String("mem-budget", "", "harness: per-run format footprint budget, e.g. 512MiB")
		journal   = flag.String("journal", "", "harness: JSONL checkpoint journal path")
		jnlNoSync = flag.Bool("journal-nosync", false, "harness: skip the per-append journal fsync (faster, loses machine-crash durability)")
		resume    = flag.Bool("resume", false, "harness: replay runs already recorded in -journal")

		serveAddr = flag.String("serve", "", "serve /metrics (Prometheus), /healthz, /debug/vars and /debug/pprof on this address while the studies run, e.g. :9090")
		logFormat = flag.String("log-format", "text", "structured log format on stderr: text or json")
		logLevel  = flag.String("log-level", "info", "log level: debug, info, warn or error")
	)
	flag.Parse()

	level, err := obs.ParseLogLevel(*logLevel)
	if err != nil {
		fmt.Fprintf(os.Stderr, "spmmstudy: %v\n", err)
		os.Exit(1)
	}
	logger, err := obs.NewLogger(os.Stderr, *logFormat, level)
	if err != nil {
		fmt.Fprintf(os.Stderr, "spmmstudy: %v\n", err)
		os.Exit(1)
	}

	if *serveAddr != "" {
		srv, err := obs.Serve(*serveAddr, obs.ServerOpts{Pprof: true, Log: logger})
		if err != nil {
			fmt.Fprintf(os.Stderr, "spmmstudy: %v\n", err)
			os.Exit(1)
		}
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			srv.Close(ctx)
		}()
	}

	cfg := studies.DefaultConfig()
	cfg.Scale = *scale
	cfg.GPUScale = *gpuScale
	cfg.Reps = *reps
	cfg.Verify = *verify
	if *matrices != "" {
		cfg.Matrices = strings.Split(*matrices, ",")
	}

	// Tracing: per-worker chunk spans come from the parallel package hook;
	// pipeline phase spans ride in via a Runner wrapper that stamps the
	// tracer onto every benchmark's Params.
	var tracer *trace.Tracer
	if *traceOut != "" || *traceSum {
		tracer = trace.New(parallel.MaxThreads()*2+2, 1<<15)
		tracer.SetEnabled(true)
		parallel.SetTracer(tracer)
		defer func() {
			parallel.SetTracer(nil)
			if *traceOut != "" {
				f, err := os.Create(*traceOut)
				if err == nil {
					err = tracer.WriteChromeTrace(f)
					if cerr := f.Close(); err == nil {
						err = cerr
					}
				}
				if err != nil {
					fmt.Fprintf(os.Stderr, "spmmstudy: trace: %v\n", err)
					return
				}
				fmt.Fprintf(os.Stderr, "spmmstudy: trace written to %s (%d spans)\n", *traceOut, tracer.Len())
			}
			if *traceSum {
				fmt.Println()
				if err := tracer.Summary().WriteTable(os.Stdout); err != nil {
					fmt.Fprintf(os.Stderr, "spmmstudy: %v\n", err)
				}
			}
		}()
	}

	// Any resilience flag routes every benchmark through the campaign
	// harness: panics become typed errors, transient failures retry,
	// over-budget formats degrade, and -journal/-resume checkpoint the run.
	var h *harness.Harness
	if *timeout > 0 || *retries > 0 || *memBudget != "" || *journal != "" || *resume {
		if *resume && *journal == "" {
			fmt.Fprintln(os.Stderr, "spmmstudy: -resume needs -journal to know what already ran")
			os.Exit(1)
		}
		budget := int64(0)
		if *memBudget != "" {
			var err error
			budget, err = harness.ParseBytes(*memBudget)
			if err != nil {
				fmt.Fprintf(os.Stderr, "spmmstudy: %v\n", err)
				os.Exit(1)
			}
		}
		hcfg := harness.Config{
			Timeout: *timeout, Retries: *retries, MemBudget: budget,
			Journal: *journal, JournalNoSync: *jnlNoSync, Resume: *resume, Seed: 1, Trace: tracer,
		}
		if !*quiet {
			hcfg.Logger = logger
		}
		var err error
		h, err = harness.New(hcfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "spmmstudy: %v\n", err)
			os.Exit(1)
		}
		defer h.Close()
		cfg.Runner = h.Runner()
	}

	if tracer != nil {
		// Stamp the tracer onto every benchmark's Params so the runner's
		// phase spans (prepare/warmup/calculate/verify) are recorded whether
		// or not the harness is in the loop.
		base := cfg.Runner
		cfg.Runner = func(kernelName string, opts core.Options, a *matrix.COO[float64],
			matrixName string, p core.Params) (core.Result, error) {
			p.Trace = tracer
			if base != nil {
				return base(kernelName, opts, a, matrixName, p)
			}
			k, err := core.New(kernelName, opts)
			if err != nil {
				return core.Result{}, err
			}
			return core.Run(k, a, matrixName, p)
		}
	}

	ids := studies.All()
	if *study != "all" {
		ids = strings.Split(*study, ",")
	}

	for _, id := range ids {
		id = strings.TrimSpace(id)
		start := time.Now()
		sections, err := studies.Run(id, cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "spmmstudy: study %s: %v\n", id, err)
			os.Exit(1)
		}
		render := studies.Render
		if *chart {
			render = studies.RenderCharts
		}
		if err := render(os.Stdout, sections); err != nil {
			fmt.Fprintf(os.Stderr, "spmmstudy: %v\n", err)
			os.Exit(1)
		}
		if *csvDir != "" {
			if err := writeCSVs(*csvDir, id, sections); err != nil {
				fmt.Fprintf(os.Stderr, "spmmstudy: %v\n", err)
				os.Exit(1)
			}
		}
		fmt.Println()
		if !*quiet {
			logger.Info("study done", "study", id,
				"elapsed", time.Since(start).Round(time.Millisecond).String())
		}
	}
	if h != nil && !*quiet {
		fmt.Fprintln(os.Stderr, "[harness counters]")
		for _, cv := range h.Counters() {
			fmt.Fprintf(os.Stderr, "  %-10s %d\n", cv.Name, cv.Value)
		}
	}
}
