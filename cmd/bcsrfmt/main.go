// Command bcsrfmt pre-formats a sparse matrix into BCSR and saves the
// result to a binary file the BCSR kernels can load directly — the interim
// tool the thesis describes in §6.3.2 to sidestep its slow formatter
// ("format the BCSR matrix into a given block configuration, and then save
// that to a file, which the BCSR kernels could quickly load and use").
//
// This suite's counting-sort formatter is linear in the nonzeros, but the
// pre-formatted files remain useful for repeated runs on large matrices and
// for sharing block configurations.
//
// Examples:
//
//	bcsrfmt -in cant.mtx -b 4 -out cant.b4.bcsr
//	bcsrfmt -matrix cant -scale 0.1 -b 8 -out cant.b8.bcsr
//	bcsrfmt -check cant.b4.bcsr
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/formats"
	"repro/internal/gen"
	"repro/internal/matrix"
	"repro/internal/mmio"
)

func main() {
	var (
		in     = flag.String("in", "", "input MatrixMarket file")
		name   = flag.String("matrix", "", "or: registry matrix name")
		scale  = flag.Float64("scale", 0.05, "scale factor for registry matrices")
		block  = flag.Int("b", 4, "block size (square blocks)")
		out    = flag.String("out", "", "output BCSR file")
		check  = flag.String("check", "", "validate an existing BCSR file and print its properties")
		useMap = flag.Bool("mapbuilder", false, "use the thesis' original map-based formatter (slow path)")
	)
	flag.Parse()

	if *check != "" {
		b, err := formats.ReadBCSRFile[float64](*check)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%s: %dx%d, %dx%d blocks, %d stored blocks, %d nonzeros, fill %.3f, %d bytes\n",
			*check, b.Rows, b.Cols, b.BR, b.BC, b.NumBlocks(), b.NNZ(), b.FillRatio(), b.Bytes())
		return
	}

	var m *matrix.COO[float64]
	var err error
	switch {
	case *in != "":
		m, err = mmio.ReadFile[float64](*in)
	case *name != "":
		m, _, err = gen.GenerateScaled(*name, *scale)
	default:
		fmt.Fprintln(os.Stderr, "bcsrfmt: one of -in, -matrix or -check is required")
		flag.Usage()
		os.Exit(2)
	}
	if err != nil {
		fatal(err)
	}
	if *out == "" {
		fatal(fmt.Errorf("-out is required"))
	}

	start := time.Now()
	var b *formats.BCSR[float64]
	if *useMap {
		b, err = formats.BCSRFromCOOMap(m, *block, *block)
	} else {
		b, err = formats.BCSRFromCOO(m, *block, *block)
	}
	if err != nil {
		fatal(err)
	}
	formatTime := time.Since(start)

	if err := formats.WriteBCSRFile(*out, b); err != nil {
		fatal(err)
	}
	fmt.Printf("formatted %d nonzeros into %d %dx%d blocks (fill %.3f) in %v -> %s (%d bytes)\n",
		m.NNZ(), b.NumBlocks(), b.BR, b.BC, b.FillRatio(), formatTime.Round(time.Microsecond), *out, b.Bytes())
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bcsrfmt:", err)
	os.Exit(1)
}
