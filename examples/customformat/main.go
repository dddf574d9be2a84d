// Custom format: the suite's first design goal is extensibility — "a custom
// format will simply extend the class, and re-implement the calculation and
// formatting functions" (§4.1). This example does exactly that through the
// public API: it implements the DIA (diagonal) format, which the suite does
// not ship, plugs it into the benchmark runner as a spmmbench.Kernel, and
// races it against CSR on the banded matrix dw4096 — DIA's ideal input —
// and on the scattered matrix 2cubes_sphere, where DIA should collapse.
package main

import (
	"fmt"
	"log"

	spmmbench "repro"
)

// diaKernel is the DIA (diagonal) sparse format: the matrix is stored as a
// set of dense diagonals, indexed by their offset from the main diagonal.
// Perfectly banded matrices need no padding; scattered matrices explode.
type diaKernel struct {
	rows, cols int
	offsets    []int
	// diags[d][i] is the element at (i, i+offsets[d]).
	diags [][]float64
}

func (d *diaKernel) Name() string         { return "dia-serial" }
func (d *diaKernel) Format() string       { return "dia" }
func (d *diaKernel) Mode() spmmbench.Mode { return spmmbench.ModeSerial }

func (d *diaKernel) Prepare(a *spmmbench.COO, p spmmbench.Params) error {
	d.rows, d.cols = a.Rows, a.Cols
	index := map[int]int{}
	d.offsets = d.offsets[:0]
	d.diags = d.diags[:0]
	for i := range a.Vals {
		off := int(a.ColIdx[i]) - int(a.RowIdx[i])
		di, ok := index[off]
		if !ok {
			di = len(d.offsets)
			index[off] = di
			d.offsets = append(d.offsets, off)
			d.diags = append(d.diags, make([]float64, a.Rows))
		}
		d.diags[di][a.RowIdx[i]] += a.Vals[i]
	}
	return nil
}

func (d *diaKernel) Bytes() int {
	return len(d.offsets)*8 + len(d.offsets)*d.rows*8
}

func (d *diaKernel) Calculate(b, c *spmmbench.Dense, p spmmbench.Params) error {
	k := p.K
	for i := 0; i < d.rows; i++ {
		clear(c.Data[i*c.Stride : i*c.Stride+k])
	}
	for di, off := range d.offsets {
		diag := d.diags[di]
		for i := 0; i < d.rows; i++ {
			col := i + off
			if col < 0 || col >= d.cols {
				continue
			}
			v := diag[i]
			if v == 0 {
				continue
			}
			crow := c.Data[i*c.Stride : i*c.Stride+k]
			brow := b.Data[col*b.Stride : col*b.Stride+k]
			for j := range crow {
				crow[j] += v * brow[j]
			}
		}
	}
	return nil
}

func main() {
	p := spmmbench.DefaultParams()
	p.Reps = 3
	p.K = 64

	for _, name := range []string{"dw4096", "2cubes_sphere"} {
		a, props, err := spmmbench.GenerateMatrix(name, 0.2)
		if err != nil {
			log.Fatal(err)
		}
		dia := &diaKernel{}
		// The runner treats the custom format exactly like a built-in:
		// Prepare is timed as formatting, the result is verified against
		// the COO reference, MFLOPS come out the other end.
		diaRes, err := spmmbench.RunBenchmark(dia, a, name, p)
		if err != nil {
			log.Fatal(err)
		}
		csr, err := spmmbench.NewKernel("csr-serial", spmmbench.KernelOptions{})
		if err != nil {
			log.Fatal(err)
		}
		csrRes, err := spmmbench.RunBenchmark(csr, a, name, p)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s (%d nonzeros, %d distinct diagonals):\n",
			name, props.NNZ, len(dia.offsets))
		fmt.Printf("  dia-serial %9.1f MFLOPS  (%8d format bytes, verified=%v)\n",
			diaRes.MFLOPS, diaRes.FormatBytes, diaRes.Verified)
		fmt.Printf("  csr-serial %9.1f MFLOPS  (%8d format bytes, verified=%v)\n",
			csrRes.MFLOPS, csrRes.FormatBytes, csrRes.Verified)
		if diaRes.MFLOPS > csrRes.MFLOPS {
			fmt.Printf("  => DIA wins: the matrix is banded, diagonals are dense\n\n")
		} else {
			fmt.Printf("  => CSR wins: %d diagonals for %d nonzeros is mostly padding\n\n",
				len(dia.offsets), props.NNZ)
		}
	}
}
