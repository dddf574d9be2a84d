package formats

import (
	"cmp"
	"slices"

	"repro/internal/matrix"
)

// SELLCS is a SELL-C-σ ("sliced ELLPACK") matrix — the suite's stand-in for
// the CSR5 future-work format the thesis names in §6.3.1. Both CSR5 and
// SELL-C-σ attack the same weakness: ELLPACK pads every row to the global
// maximum, so one long row poisons the whole matrix. SELL-C-σ instead
//
//  1. sorts rows by length within windows of σ rows (bounded reordering,
//     so locality of the original ordering is roughly kept),
//  2. groups the (permuted) rows into slices of C rows, and
//  3. pads each slice only to its own maximum width, storing the slice
//     column-major so slot s of all C rows is contiguous (SIMD/GPU lanes).
type SELLCS[T matrix.Float] struct {
	Rows, Cols int
	// C is the slice height; Sigma the sorting-window size (a multiple of
	// C; Sigma == Rows gives a full sort, Sigma == C disables sorting).
	C, Sigma int
	// Perm maps permuted position -> original row; row Perm[i] of the
	// matrix is stored at permuted position i.
	Perm []int32
	// SlicePtr has numSlices+1 entries giving each slice's offset into
	// ColIdx/Vals (in elements, already multiplied by C).
	SlicePtr []int32
	// Width[s] is slice s's padded row width.
	Width []int32
	// ColIdx/Vals store slice s column-major: entry (lane l, slot j) of
	// slice s is at SlicePtr[s] + j*C + l. Padding repeats the lane's
	// last real column with value 0.
	ColIdx []int32
	Vals   []T
	// RowLen[i] is how many slots of the lane at permuted position i are
	// real (0 for the last slice's lanes past Rows); the rest of the lane,
	// up to its slice's width, is padding.
	RowLen []int32

	balanced partitionCache // memoized element-balanced slice splits
	reuse    matrix.Reuse   // the source's scan, for the kernels' slab rule
}

// SELLCSFromCOO converts a COO matrix to SELL-C-σ form. c must be >= 1 and
// sigma a positive multiple of c (or sigma == 0 for "no sorting").
func SELLCSFromCOO[T matrix.Float](m *matrix.COO[T], c, sigma int) (*SELLCS[T], error) {
	if c < 1 {
		return nil, invalidf("sellcs: slice height %d (must be >= 1)", c)
	}
	if sigma == 0 {
		sigma = c
	}
	if sigma < c || sigma%c != 0 {
		return nil, invalidf("sellcs: sigma %d must be a positive multiple of C=%d", sigma, c)
	}

	csr := CSRFromCOO(m)
	rows := m.Rows

	// Sort rows by descending length within σ-windows.
	perm := make([]int32, rows)
	for i := range perm {
		perm[i] = int32(i)
	}
	for lo := 0; lo < rows; lo += sigma {
		hi := min(lo+sigma, rows)
		win := perm[lo:hi]
		slices.SortStableFunc(win, func(a, b int32) int {
			return cmp.Compare(csr.RowNNZ(int(b)), csr.RowNNZ(int(a)))
		})
	}

	numSlices := ceilDiv(max(rows, 1), c)
	if rows == 0 {
		numSlices = 0
	}
	s := &SELLCS[T]{
		Rows:     rows,
		Cols:     m.Cols,
		C:        c,
		Sigma:    sigma,
		Perm:     perm,
		SlicePtr: make([]int32, numSlices+1),
		Width:    make([]int32, numSlices),
		RowLen:   make([]int32, numSlices*c),
		reuse:    m.Reuse(),
	}

	// First pass: slice widths and offsets.
	total := 0
	for sl := 0; sl < numSlices; sl++ {
		w := 0
		for l := 0; l < c; l++ {
			pos := sl*c + l
			if pos >= rows {
				break
			}
			if n := csr.RowNNZ(int(perm[pos])); n > w {
				w = n
			}
		}
		s.Width[sl] = int32(w)
		s.SlicePtr[sl] = int32(total)
		total += w * c
	}
	if numSlices > 0 {
		s.SlicePtr[numSlices] = int32(total)
	}
	s.ColIdx = make([]int32, total)
	s.Vals = make([]T, total)

	// Second pass: scatter entries column-major per slice. The last slice's
	// lanes past the last row stay all zero.
	for sl := 0; sl < numSlices; sl++ {
		base := int(s.SlicePtr[sl])
		w := int(s.Width[sl])
		for l := 0; l < c && sl*c+l < rows; l++ {
			r := int(perm[sl*c+l])
			lastCol := int32(min(r, max(m.Cols-1, 0)))
			j := 0
			for p := csr.RowPtr[r]; p < csr.RowPtr[r+1]; p++ {
				s.ColIdx[base+j*c+l] = csr.ColIdx[p]
				s.Vals[base+j*c+l] = csr.Vals[p]
				lastCol = csr.ColIdx[p]
				j++
			}
			s.RowLen[sl*c+l] = int32(j)
			for ; j < w; j++ {
				s.ColIdx[base+j*c+l] = lastCol
			}
		}
	}
	return s, nil
}

// NumSlices reports the number of row slices.
func (s *SELLCS[T]) NumSlices() int { return len(s.Width) }

// ToCOO expands stored nonzeros back into sorted COO form, undoing the row
// permutation.
func (s *SELLCS[T]) ToCOO() *matrix.COO[T] {
	m := matrix.NewCOO[T](s.Rows, s.Cols, 0)
	for sl := 0; sl < s.NumSlices(); sl++ {
		base := int(s.SlicePtr[sl])
		for l := 0; l < s.C; l++ {
			pos := sl*s.C + l
			if pos >= s.Rows {
				break
			}
			row := s.Perm[pos]
			for j := 0; j < int(s.RowLen[pos]); j++ {
				m.Append(row, s.ColIdx[base+j*s.C+l], s.Vals[base+j*s.C+l])
			}
		}
	}
	m.SortRowMajor()
	return m
}

// FormatName is the short name used in reports.
func (s *SELLCS[T]) FormatName() string { return "sellcs" }

// Reuse is how the rows reuse columns, scanned from the COO the matrix was
// converted from; zero (unsorted) for one built any other way.
func (s *SELLCS[T]) Reuse() matrix.Reuse { return s.reuse }

// Dims returns the logical matrix dimensions.
func (s *SELLCS[T]) Dims() (int, int) { return s.Rows, s.Cols }

// NNZ reports the number of logical nonzeros: the real slots of every lane.
func (s *SELLCS[T]) NNZ() int { return sumLens(s.RowLen) }

// Stored reports the stored value slots, padding included.
func (s *SELLCS[T]) Stored() int { return len(s.Vals) }

// Bytes implements Sparse.
func (s *SELLCS[T]) Bytes() int {
	var z T
	return len(s.Perm)*4 + len(s.SlicePtr)*4 + len(s.Width)*4 + len(s.RowLen)*4 +
		len(s.ColIdx)*4 + len(s.Vals)*valueSize(z)
}

// Validate checks the SELL-C-σ structural invariants.
func (s *SELLCS[T]) Validate() error {
	if s.C < 1 {
		return invalidf("sellcs: C=%d", s.C)
	}
	if len(s.Perm) != s.Rows {
		return invalidf("sellcs: Perm length %d, want %d", len(s.Perm), s.Rows)
	}
	seen := make([]bool, s.Rows)
	for _, p := range s.Perm {
		if p < 0 || int(p) >= s.Rows || seen[p] {
			return invalidf("sellcs: Perm is not a permutation (row %d)", p)
		}
		seen[p] = true
	}
	if len(s.SlicePtr) != len(s.Width)+1 {
		return invalidf("sellcs: SlicePtr length %d, want %d", len(s.SlicePtr), len(s.Width)+1)
	}
	for sl := range s.Width {
		if got := s.SlicePtr[sl+1] - s.SlicePtr[sl]; got != s.Width[sl]*int32(s.C) {
			return invalidf("sellcs: slice %d spans %d elements, want %d", sl, got, s.Width[sl]*int32(s.C))
		}
	}
	if n := len(s.SlicePtr); n > 0 && int(s.SlicePtr[n-1]) != len(s.Vals) {
		return invalidf("sellcs: SlicePtr end %d, want %d", s.SlicePtr[n-1], len(s.Vals))
	}
	if len(s.ColIdx) != len(s.Vals) {
		return invalidf("sellcs: ColIdx length %d != Vals length %d", len(s.ColIdx), len(s.Vals))
	}
	for i, col := range s.ColIdx {
		if col < 0 || (int(col) >= s.Cols && s.Cols > 0) {
			return invalidf("sellcs: slot %d column %d outside [0, %d)", i, col, s.Cols)
		}
	}
	if len(s.RowLen) != len(s.Width)*s.C {
		return invalidf("sellcs: %d row lengths, want %d", len(s.RowLen), len(s.Width)*s.C)
	}
	for sl, w := range s.Width {
		lo, base := sl*s.C, int(s.SlicePtr[sl])
		err := checkLens("sellcs", s.RowLen[lo:lo+s.C], s.C, int(w),
			func(l int) int32 {
				if lo+l >= s.Rows {
					return 0
				}
				return int32(min(int(s.Perm[lo+l]), max(s.Cols-1, 0)))
			},
			func(l, j int) (int32, bool) { return s.ColIdx[base+j*s.C+l], s.Vals[base+j*s.C+l] == 0 })
		if err != nil {
			return err
		}
	}
	return nil
}
