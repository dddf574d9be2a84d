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
	case "csc":
		return CSCFromCOO(m), nil
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
