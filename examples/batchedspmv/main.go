// Batched SpMV: the introduction's motivating use case — "it is often
// necessary to multiply several vectors by the same matrix ... these
// vectors can be 'stacked' and multiplied with the sparse matrix as SpMM"
// (§2.3). This example multiplies the same sparse matrix by 64 right-hand
// sides both ways — 64 independent SpMV calls versus one SpMM with k=64 —
// verifies they agree bit for bit (an SpMV is the same kernel at k=1), and
// compares throughput.
package main

import (
	"fmt"
	"log"
	"time"

	spmmbench "repro"

	"repro/internal/formats"
	"repro/internal/kernels"
	"repro/internal/matrix"
)

func main() {
	const batch = 64

	a, props, err := spmmbench.GenerateMatrix("2cubes_sphere", 0.1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("matrix: %dx%d with %d nonzeros; batching %d right-hand sides\n",
		props.Rows, props.Cols, props.NNZ, batch)

	csr := formats.CSRFromCOO(a)
	// The 64 vectors, stacked as the columns of a dense B.
	b := matrix.NewDenseRand[float64](a.Cols, batch, 7)

	// Way 1: one SpMV per vector. Each column must be gathered out of B
	// and scattered back into C — exactly the overhead batching removes.
	x := make([]float64, a.Cols)
	y := make([]float64, a.Rows)
	cSpMV := matrix.NewDense[float64](a.Rows, batch)
	start := time.Now()
	for v := 0; v < batch; v++ {
		for i := 0; i < a.Cols; i++ {
			x[i] = b.At(i, v)
		}
		if err := kernels.MultiplyVec(csr, x, y, kernels.Spec{}); err != nil {
			log.Fatal(err)
		}
		for i := 0; i < a.Rows; i++ {
			cSpMV.Set(i, v, y[i])
		}
	}
	spmvTime := time.Since(start)

	// Way 2: one SpMM with k = batch.
	cSpMM := matrix.NewDense[float64](a.Rows, batch)
	start = time.Now()
	if err := kernels.CSR(csr, b, cSpMM, batch, kernels.Spec{}); err != nil {
		log.Fatal(err)
	}
	spmmTime := time.Since(start)

	if diff, err := cSpMM.MaxAbsDiff(cSpMV); err != nil || diff != 0 {
		log.Fatalf("batched SpMM disagrees with repeated SpMV: max abs diff %g, %v", diff, err)
	}

	flops := kernels.SpMMFlops(a.NNZ(), batch)
	fmt.Printf("%d x SpMV: %8v  (%7.1f MFLOPS)\n", batch, spmvTime.Round(time.Microsecond),
		flops/spmvTime.Seconds()/1e6)
	fmt.Printf("1 x SpMM:  %8v  (%7.1f MFLOPS)\n", spmmTime.Round(time.Microsecond),
		flops/spmmTime.Seconds()/1e6)
	fmt.Printf("speedup from batching: %.2fx (results identical)\n",
		spmvTime.Seconds()/spmmTime.Seconds())
}
