// GPU offload: run SpMM kernels on the simulated SIMT device and inspect
// what the simulator reports — modelled time, the dominating roofline term,
// and the coalescing efficiency that separates the naive "offload-style"
// kernels from the tuned vendor-library ones (Study 7's mechanism, visible
// directly).
package main

import (
	"fmt"
	"log"

	"repro/internal/formats"
	"repro/internal/gen"
	"repro/internal/gpusim"
	"repro/internal/kernels"
	"repro/internal/matrix"
	"repro/internal/vendorlib"
)

func main() {
	const k = 128
	a, _, err := gen.GenerateScaled("pdb1HYS", 0.05)
	if err != nil {
		log.Fatal(err)
	}
	b := matrix.NewDenseRand[float64](a.Cols, k, 3)
	c := matrix.NewDense[float64](a.Rows, k)
	csr := formats.CSRFromCOO(a)

	// A device scaled to the matrix keeps the occupancy regime of a
	// full-size run on the full H100-like device.
	dev, err := gpusim.NewDevice(gpusim.H100Like().ScaledDown(0.05))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("device: %s (%d SMs, %.1f GHz)\n",
		dev.Config().Name, dev.Config().SMs, dev.Config().ClockGHz)
	fmt.Printf("matrix: pdb1HYS at 5%% scale, %d nonzeros, k=%d\n\n", a.NNZ(), k)

	flops := 2 * float64(a.NNZ()) * k
	show := func(label string, res gpusim.LaunchResult) {
		fmt.Printf("%-22s %9.3f ms  %8.0f MFLOPS  bound=%-7s  coalescing %.2f  (L1/L2/DRAM %d/%d/%d)\n",
			label, res.Seconds*1e3, flops/res.Seconds/1e6, res.Bound,
			res.Stats.CoalescingEfficiency(),
			res.Stats.L1Transactions, res.Stats.L2Transactions, res.Stats.DRAMTransactions)
	}

	ell := formats.ELLFromCOO(a, formats.ColMajor)
	for _, run := range []struct {
		label  string
		a      formats.Sparse
		vendor bool
	}{
		{"offload COO (atomics)", a, false},
		{"offload CSR", csr, false},
		{"offload ELL (colmajor)", ell, false},
		{"vendor COO", a, true},
		{"vendor CSR", csr, true},
	} {
		var res gpusim.LaunchResult
		if run.vendor {
			res, err = vendorlib.SpMM(dev, run.a, b, c, k)
		} else {
			res, err = gpusim.SpMM(dev, run.a, b, c, k, kernels.InnerTiled)
		}
		if err != nil {
			log.Fatal(err)
		}
		show(run.label, res)
	}

	fmt.Println("\nThe vendor kernels' coalesced k-dimension mapping needs far fewer")
	fmt.Println("memory transactions per useful flop — the same structural reason")
	fmt.Println("cuSPARSE beat the OpenMP offload kernels in the thesis (§5.9).")
}
