package formats

import (
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

// BCSRFromCOO converts a COO matrix to BCSR with BR×BC blocks using a
// sorted two-pass builder: O(nnz log nnz) overall. This is the suite's fast
// formatting path — the thesis reports its original (map-heavy) BCSR
// formatter took 40 hours over its matrix set (§6.3.2); the sorted builder
// is the fix, and BCSRFromCOOMap preserves the original strategy for the
// ablation benchmark.
func BCSRFromCOO[T matrix.Float](m *matrix.COO[T], br, bc int) (*BCSR[T], error) {
	if br < 1 || bc < 1 {
		return nil, invalidBlock(br, bc)
	}
	b := newBCSRShell[T](m, br, bc)
	nnz := m.NNZ()
	if nnz == 0 {
		return b, nil
	}

	// Pass 1: key every triplet by (block row, block col) and order them.
	type keyed struct {
		key int64
		idx int32
	}
	keys := make([]keyed, nnz)
	for i := 0; i < nnz; i++ {
		bri := int64(m.RowIdx[i]) / int64(br)
		bci := int64(m.ColIdx[i]) / int64(bc)
		keys[i] = keyed{key: bri*int64(b.BlockCols) + bci, idx: int32(i)}
	}
	sort.Slice(keys, func(x, y int) bool { return keys[x].key < keys[y].key })

	// Pass 2: count distinct blocks, then fill.
	nblocks := 0
	prev := int64(-1)
	for _, k := range keys {
		if k.key != prev {
			nblocks++
			prev = k.key
		}
	}
	b.ColIdx = make([]int32, nblocks)
	b.Vals = make([]T, nblocks*br*bc)

	blk := -1
	prev = -1
	for _, k := range keys {
		if k.key != prev {
			blk++
			prev = k.key
			bri := k.key / int64(b.BlockCols)
			bci := k.key % int64(b.BlockCols)
			b.RowPtr[bri+1]++
			b.ColIdx[blk] = int32(bci)
		}
		i := k.idx
		r := int(m.RowIdx[i]) % br
		c := int(m.ColIdx[i]) % bc
		b.Vals[blk*br*bc+r*bc+c] += m.Vals[i]
	}
	for i := 0; i < b.BlockRows; i++ {
		b.RowPtr[i+1] += b.RowPtr[i]
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
