// Package formats implements the sparse matrix storage formats studied by
// the thesis — COO (in package matrix), CSR, ELLPACK and BCSR — plus the two
// formats its future-work section names as next targets: Blocked-ELLPACK
// (BELL) and a SELL-C-σ style sliced format standing in for CSR5.
//
// Every format is built from the COO base representation, matching the
// suite's design in which "all other formats will format their structures
// based on the COO representation" (§4.1).
package formats

import (
	"errors"
	"fmt"

	"repro/internal/matrix"
)

// ErrInvalid is returned when a format fails structural validation.
var ErrInvalid = errors.New("formats: invalid structure")

// ErrBlockSize is returned for unusable block configurations.
var ErrBlockSize = errors.New("formats: invalid block size")

// Sparse is what every prepared format has in common as far as the layers
// above the kernels are concerned: a memory footprint (future-work §6.3.5).
// The concrete type — *matrix.COO or one of this package's formats — is what
// kernels.Multiply switches on.
type Sparse interface {
	// Bytes reports the memory footprint of the format's arrays.
	Bytes() int
}

// SELLC and SELLSigma are the suite's one SELL-C-σ shape: slices of 8 rows
// (one AVX-512 register of float64 lanes) sorted inside windows of 64 rows.
// Benchmarks, studies, the serving registry and the tuner's lab all convert
// with these values, so a timing measured in one transfers to the others.
const (
	SELLC     = 8
	SELLSigma = 64
)

// Params are the storage parameters FromCOO needs beyond the format name.
type Params struct {
	// Block is the BCSR/BELL block edge.
	Block int
	// Layout is the ELL value layout.
	Layout ELLLayout
}

// FromCOO converts the COO base representation into the named format — the
// suite's single format-name → conversion site. "coo" sorts m row-major in
// place and returns it.
func FromCOO[T matrix.Float](name string, m *matrix.COO[T], p Params) (Sparse, error) {
	switch name {
	case "coo":
		m.SortRowMajor()
		return m, nil
	case "csr":
		return CSRFromCOO(m), nil
	case "ell":
		return ELLFromCOO(m, p.Layout), nil
	case "bcsr":
		return BCSRFromCOO(m, p.Block, p.Block)
	case "bell":
		return BELLFromCOO(m, p.Block, p.Block)
	case "sellcs":
		return SELLCSFromCOO(m, SELLC, SELLSigma)
	}
	return nil, fmt.Errorf("formats: unknown format %q", name)
}

func invalidf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrInvalid, fmt.Sprintf(format, args...))
}

// ceilDiv returns ceil(a/b) for positive b.
func ceilDiv(a, b int) int { return (a + b - 1) / b }

// sumLens totals the stored lengths of a padded format: its real slots.
func sumLens(lens []int32) int {
	n := 0
	for _, l := range lens {
		n += int(l)
	}
	return n
}

// fringeZero reports whether blk, the br×bc block at block row bri and block
// column bcj of a rows×cols matrix, holds only zeros in its padded fringe:
// its rows at or past rows and its columns at or past cols. The kernels walk
// a block lane's bc values with no column limit and skip zeros as fill, so a
// nonzero there would name a column outside B.
func fringeZero[T matrix.Float](blk []T, bri, bcj, rows, cols, br, bc int) bool {
	rowLim, colLim := rows-bri*br, cols-bcj*bc
	if rowLim >= br && colLim >= bc {
		return true
	}
	for i, v := range blk {
		if (i/bc >= rowLim || i%bc >= colLim) && v != 0 {
			return false
		}
	}
	return true
}

// checkLens is the invariant ELL, BELL and SELL-C-σ share: n lengths, each
// in [0, width], the longest exactly width, and past each length only the
// padding FromCOO writes — zero values at the column of the row's last real
// slot (emptyCol(i) for a row with none). at reports slot s of row i.
func checkLens(name string, lens []int32, n, width int, emptyCol func(i int) int32, at func(i, s int) (col int32, zero bool)) error {
	if len(lens) != n {
		return invalidf("%s: %d row lengths, want %d", name, len(lens), n)
	}
	longest := 0
	for i, l := range lens {
		if l < 0 || int(l) > width {
			return invalidf("%s: row %d has length %d outside [0, %d]", name, i, l, width)
		}
		longest = max(longest, int(l))
		pad := emptyCol(i)
		if l > 0 {
			pad, _ = at(i, int(l)-1)
		}
		for s := int(l); s < width; s++ {
			if col, zero := at(i, s); !zero || col != pad {
				return invalidf("%s: row %d slot %d, past its length %d, is not zero padding at column %d", name, i, s, l, pad)
			}
		}
	}
	if longest != width {
		return invalidf("%s: longest row has %d slots, width is %d", name, longest, width)
	}
	return nil
}
