package formats

import (
	"slices"
	"sort"

	"repro/internal/matrix"
)

// BCSR is the block compressed sparse row format: CSR over dense BR×BC
// blocks. Any block containing at least one nonzero is stored in full, with
// the absent positions padded by explicit zeros. Block rows cover rows
// [i*BR, (i+1)*BR); the trailing block row/column is padded when the matrix
// dimensions are not multiples of the block size.
type BCSR[T matrix.Float] struct {
	Rows, Cols int // logical matrix dimensions
	BR, BC     int // block dimensions
	// BlockRows and BlockCols are the block-grid dimensions
	// (ceil(Rows/BR), ceil(Cols/BC)).
	BlockRows, BlockCols int
	// RowPtr has BlockRows+1 entries; block row i's blocks are
	// ColIdx[RowPtr[i]:RowPtr[i+1]].
	RowPtr []int32
	// ColIdx holds block-column indices, ascending within each block row.
	ColIdx []int32
	// Vals holds the dense blocks, each BR*BC values in row-major order,
	// concatenated in block order.
	Vals []T

	balanced partitionCache // memoized block-balanced block-row splits
}

// BCSRFromCOO converts a COO matrix to BCSR with BR×BC blocks by a counting
// sort of the triplets by block row and, per block row, a stamp array over
// block columns: linear in nnz and the block grid, except that each block
// row's own short list of block columns is sorted. This is the suite's fast
// formatting path — the thesis reports its original (map-heavy) BCSR
// formatter took 40 hours over its matrix set (§6.3.2); BCSRFromCOOMap
// preserves that strategy for the ablation benchmark. Duplicate triplets
// are summed in triplet order, as BCSRFromCOOMap sums them, so the two
// build identical matrices from any input.
func BCSRFromCOO[T matrix.Float](m *matrix.COO[T], br, bc int) (*BCSR[T], error) {
	if br < 1 || bc < 1 {
		return nil, invalidBlock(br, bc)
	}
	b := newBCSRShell[T](m, br, bc)
	nnz := m.NNZ()
	if nnz == 0 {
		return b, nil
	}
	// One scratch allocation: the triplet order, the block-row starts
	// (two longer than BlockRows for the counting sort), a stamp per block
	// column and each block column's block slot within the current row.
	scratch := make([]int32, nnz+b.BlockRows+2+2*b.BlockCols)
	order, scratch := scratch[:nnz], scratch[nnz:]
	start, scratch := scratch[:b.BlockRows+2], scratch[b.BlockRows+2:]
	stamp, slot := scratch[:b.BlockCols], scratch[b.BlockCols:]

	// Pass 1: a stable counting sort of triplet indices by block row.
	// Block row i's triplets end up in order[start[i]:start[i+1]], in
	// triplet order.
	for _, r := range m.RowIdx {
		start[int(r)/br+2]++
	}
	for i := 2; i < len(start); i++ {
		start[i] += start[i-1]
	}
	for t, r := range m.RowIdx {
		i := int(r)/br + 1
		order[start[i]] = int32(t)
		start[i]++
	}

	// Pass 2: count each block row's distinct block columns, stamping a
	// column with its block row + 1.
	for i := 0; i < b.BlockRows; i++ {
		for _, t := range order[start[i]:start[i+1]] {
			if bj := int(m.ColIdx[t]) / bc; stamp[bj] != int32(i+1) {
				stamp[bj] = int32(i + 1)
				b.RowPtr[i+1]++
			}
		}
	}
	for i := 0; i < b.BlockRows; i++ {
		b.RowPtr[i+1] += b.RowPtr[i]
	}
	b.ColIdx = make([]int32, b.RowPtr[b.BlockRows])
	b.Vals = make([]T, len(b.ColIdx)*br*bc)

	// Pass 3: list each block row's block columns (stamped with -(i+1) this
	// time), sort them, then add every triplet into its block in triplet
	// order.
	for i := 0; i < b.BlockRows; i++ {
		trips := order[start[i]:start[i+1]]
		blocks := b.ColIdx[b.RowPtr[i]:b.RowPtr[i+1]]
		n := 0
		for _, t := range trips {
			if bj := int(m.ColIdx[t]) / bc; stamp[bj] != -int32(i+1) {
				stamp[bj] = -int32(i + 1)
				blocks[n] = int32(bj)
				n++
			}
		}
		slices.Sort(blocks)
		for j, bj := range blocks {
			slot[bj] = b.RowPtr[i] + int32(j)
		}
		for _, t := range trips {
			r := int(m.RowIdx[t]) % br
			c := int(m.ColIdx[t])
			blk := int(slot[c/bc])
			b.Vals[blk*br*bc+r*bc+c%bc] += m.Vals[t]
		}
	}
	return b, nil
}

// BCSRFromCOOMap converts COO to BCSR via hash-map block discovery. This is
// the thesis' original formatting strategy ("we solved it ... by using the
// containers ... especially maps", §4.2) kept for the BCSR-formatting
// ablation; BCSRFromCOO produces an identical matrix faster.
func BCSRFromCOOMap[T matrix.Float](m *matrix.COO[T], br, bc int) (*BCSR[T], error) {
	if br < 1 || bc < 1 {
		return nil, invalidBlock(br, bc)
	}
	b := newBCSRShell[T](m, br, bc)
	blockOf := make(map[int64][]int32) // block key -> triplet indices
	for i := 0; i < m.NNZ(); i++ {
		bri := int64(m.RowIdx[i]) / int64(br)
		bci := int64(m.ColIdx[i]) / int64(bc)
		key := bri*int64(b.BlockCols) + bci
		blockOf[key] = append(blockOf[key], int32(i))
	}
	keyList := make([]int64, 0, len(blockOf))
	for k := range blockOf {
		keyList = append(keyList, k)
	}
	sort.Slice(keyList, func(x, y int) bool { return keyList[x] < keyList[y] })

	b.ColIdx = make([]int32, len(keyList))
	b.Vals = make([]T, len(keyList)*br*bc)
	for blk, key := range keyList {
		bri := key / int64(b.BlockCols)
		bci := key % int64(b.BlockCols)
		b.RowPtr[bri+1]++
		b.ColIdx[blk] = int32(bci)
		for _, i := range blockOf[key] {
			r := int(m.RowIdx[i]) % br
			c := int(m.ColIdx[i]) % bc
			b.Vals[blk*br*bc+r*bc+c] += m.Vals[i]
		}
	}
	for i := 0; i < b.BlockRows; i++ {
		b.RowPtr[i+1] += b.RowPtr[i]
	}
	return b, nil
}

func newBCSRShell[T matrix.Float](m *matrix.COO[T], br, bc int) *BCSR[T] {
	blockRows := ceilDiv(max(m.Rows, 0), br)
	blockCols := ceilDiv(max(m.Cols, 0), bc)
	return &BCSR[T]{
		Rows:      m.Rows,
		Cols:      m.Cols,
		BR:        br,
		BC:        bc,
		BlockRows: blockRows,
		BlockCols: blockCols,
		RowPtr:    make([]int32, blockRows+1),
	}
}

func invalidBlock(br, bc int) error {
	return invalidf("bcsr: block size %dx%d (both dimensions must be >= 1): %v",
		br, bc, ErrBlockSize)
}

// Block returns the dense values of the i-th stored block as a BR*BC
// row-major slice sharing storage with the matrix.
func (b *BCSR[T]) Block(i int) []T {
	sz := b.BR * b.BC
	return b.Vals[i*sz : (i+1)*sz]
}

// NumBlocks reports the number of stored blocks.
func (b *BCSR[T]) NumBlocks() int { return len(b.ColIdx) }

// ToCOO expands stored nonzero positions back into sorted COO form,
// dropping padding zeros and clipping any padded fringe outside the logical
// dimensions.
func (b *BCSR[T]) ToCOO() *matrix.COO[T] {
	m := matrix.NewCOO[T](b.Rows, b.Cols, b.NNZ())
	for bri := 0; bri < b.BlockRows; bri++ {
		for p := b.RowPtr[bri]; p < b.RowPtr[bri+1]; p++ {
			bci := int(b.ColIdx[p])
			blk := b.Block(int(p))
			for r := 0; r < b.BR; r++ {
				row := bri*b.BR + r
				if row >= b.Rows {
					break
				}
				for c := 0; c < b.BC; c++ {
					col := bci*b.BC + c
					if col >= b.Cols {
						break
					}
					if v := blk[r*b.BC+c]; v != 0 {
						m.Append(int32(row), int32(col), v)
					}
				}
			}
		}
	}
	m.SortRowMajor()
	return m
}

// FormatName is the short name used in reports.
func (b *BCSR[T]) FormatName() string { return "bcsr" }

// Dims returns the logical matrix dimensions.
func (b *BCSR[T]) Dims() (int, int) { return b.Rows, b.Cols }

// NNZ reports the number of logical nonzeros; it counts nonzero stored values, excluding block
// padding.
func (b *BCSR[T]) NNZ() int {
	n := 0
	for _, v := range b.Vals {
		if v != 0 {
			n++
		}
	}
	return n
}

// Stored reports the stored value slots; every block slot is stored.
func (b *BCSR[T]) Stored() int { return len(b.Vals) }

// Bytes implements Sparse.
func (b *BCSR[T]) Bytes() int {
	var z T
	return len(b.RowPtr)*4 + len(b.ColIdx)*4 + len(b.Vals)*valueSize(z)
}

// FillRatio reports the fraction of stored slots holding real nonzeros — the
// efficiency of the chosen block size for this matrix (1.0 = no padding).
func (b *BCSR[T]) FillRatio() float64 {
	if len(b.Vals) == 0 {
		return 1
	}
	return float64(b.NNZ()) / float64(len(b.Vals))
}

// Validate checks the BCSR structural invariants.
func (b *BCSR[T]) Validate() error {
	if b.BR < 1 || b.BC < 1 {
		return invalidBlock(b.BR, b.BC)
	}
	if len(b.RowPtr) != b.BlockRows+1 {
		return invalidf("bcsr: RowPtr length %d, want %d", len(b.RowPtr), b.BlockRows+1)
	}
	if b.RowPtr[0] != 0 || int(b.RowPtr[b.BlockRows]) != len(b.ColIdx) {
		return invalidf("bcsr: RowPtr endpoints [%d, %d], want [0, %d]",
			b.RowPtr[0], b.RowPtr[b.BlockRows], len(b.ColIdx))
	}
	if len(b.Vals) != len(b.ColIdx)*b.BR*b.BC {
		return invalidf("bcsr: Vals length %d, want %d blocks * %d",
			len(b.Vals), len(b.ColIdx), b.BR*b.BC)
	}
	for i := 0; i < b.BlockRows; i++ {
		if b.RowPtr[i+1] < b.RowPtr[i] {
			return invalidf("bcsr: RowPtr not monotone at block row %d", i)
		}
		for p := b.RowPtr[i] + 1; p < b.RowPtr[i+1]; p++ {
			if b.ColIdx[p] <= b.ColIdx[p-1] {
				return invalidf("bcsr: block columns not ascending in block row %d", i)
			}
		}
	}
	for p, col := range b.ColIdx {
		if col < 0 || int(col) >= b.BlockCols {
			return invalidf("bcsr: block %d column %d outside [0, %d)", p, col, b.BlockCols)
		}
	}
	for i := 0; i < b.BlockRows; i++ {
		for p := int(b.RowPtr[i]); p < int(b.RowPtr[i+1]); p++ {
			if !fringeZero(b.Block(p), i, int(b.ColIdx[p]), b.Rows, b.Cols, b.BR, b.BC) {
				return invalidf("bcsr: block %d holds a nonzero outside the %dx%d matrix", p, b.Rows, b.Cols)
			}
		}
	}
	return nil
}
