// GNN feature propagation: the thesis' introduction motivates SpMM with
// machine learning and graph analytics (GE-SpMM and friends) — a graph
// neural network layer is exactly SpMM: X' = Â × X with a sparse adjacency
// matrix and a dense feature matrix. This example builds a scale-free
// R-MAT graph, normalises its adjacency, and runs two propagation layers,
// comparing the formats the advisor would choose for this very skewed
// workload.
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/advisor"
	"repro/internal/formats"
	"repro/internal/gen"
	"repro/internal/kernels"
	"repro/internal/matrix"
	"repro/internal/metrics"
)

func main() {
	const (
		scale    = 12 // 4096 vertices
		features = 64
		threads  = 4
	)
	adj, err := gen.RMAT[float64](scale, 16, 0.57, 0.19, 0.19, 42)
	if err != nil {
		log.Fatal(err)
	}
	props := metrics.Compute(adj)
	fmt.Printf("R-MAT graph: %d vertices, %d edges, max degree %d, avg %.1f (ratio %.1f)\n",
		props.Rows, props.NNZ, props.MaxRow, props.AvgRow, props.Ratio)

	// Row-normalise the adjacency (mean aggregation: Â = D⁻¹A).
	counts := adj.RowCounts()
	for i := range adj.Vals {
		adj.Vals[i] /= float64(counts[adj.RowIdx[i]])
	}

	// What does the property-based advisor say about this graph?
	f, err := advisor.Extract(adj)
	if err != nil {
		log.Fatal(err)
	}
	pick := advisor.Recommend(f, advisor.ParallelCPU)[0]
	fmt.Printf("advisor: %s — %s\n\n", pick.Format, pick.Reason)

	// Two propagation layers: X1 = Â·X0, X2 = Â·X1.
	x0 := matrix.NewDenseRand[float64](adj.Cols, features, 7)
	x1 := matrix.NewDense[float64](adj.Rows, features)
	x2 := matrix.NewDense[float64](adj.Rows, features)

	csr := formats.CSRFromCOO(adj)
	omp := kernels.Spec{Threads: threads}
	if err := kernels.CSR(csr, x0, x1, features, omp); err != nil {
		log.Fatal(err)
	}
	if err := kernels.CSR(csr, x1, x2, features, omp); err != nil {
		log.Fatal(err)
	}

	// Sanity: mean aggregation keeps features bounded by the input range.
	lo, hi := x2.Data[0], x2.Data[0]
	for _, v := range x2.Data {
		lo, hi = min(lo, v), max(hi, v)
	}
	fmt.Printf("propagated %d features through 2 layers: output range [%.3f, %.3f]\n",
		features, lo, hi)

	// Compare the candidate formats on this workload.
	b := x0
	c := matrix.NewDense[float64](adj.Rows, features)
	run := func(label string, fn func() error) {
		secs, err := timeIt(fn)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-10s %8.1f MFLOPS\n", label,
			metrics.MFLOPS(kernels.SpMMFlops(adj.NNZ(), features), secs))
	}
	fmt.Println("\nper-layer SpMM throughput by format:")
	run("coo-omp", func() error { return kernels.COO(adj, b, c, features, omp) })
	run("csr-omp", func() error { return kernels.CSR(csr, b, c, features, omp) })
	ell := formats.ELLFromCOO(adj, formats.RowMajor)
	run("ell-omp", func() error { return kernels.ELL(ell, b, c, features, omp) })
	fmt.Printf("\n(ELL stores %d slots for %d edges — a %.1fx padding blow-up on this\n"+
		"power-law graph, the degradation the thesis' column-ratio metric predicts.)\n",
		ell.Stored(), adj.NNZ(), float64(ell.Stored())/float64(adj.NNZ()))
}

func timeIt(fn func() error) (float64, error) {
	const reps = 3
	best := 0.0
	for i := 0; i < reps; i++ {
		start := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		if d := time.Since(start).Seconds(); i == 0 || d < best {
			best = d
		}
	}
	return best, nil
}
