package formats

import (
	"math/bits"
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
	reuse    matrix.Reuse   // the source's scan, for the kernels' slab rule
}

// BCSRFromCOO converts a COO matrix to BCSR with BR×BC blocks by the block
// pass BELLFromCOO and BlockFill share (blockPass): linear in nnz and the
// block grid, except that each block row's own short list of block columns
// is sorted. This is the suite's fast formatting path — the thesis reports
// its original (map-heavy) BCSR formatter took 40 hours over its matrix set
// (§6.3.2); BCSRFromCOOMap preserves that strategy for the ablation
// benchmark. Duplicate triplets are summed in triplet order, as
// BCSRFromCOOMap sums them, so the two build identical matrices from any
// input.
func BCSRFromCOO[T matrix.Float](m *matrix.COO[T], br, bc int) (*BCSR[T], error) {
	if br < 1 || bc < 1 {
		return nil, invalidBlock(br, bc)
	}
	b := newBCSRShell[T](m, br, bc)
	if m.NNZ() == 0 {
		return b, nil
	}
	p := newBlockPass(m, br, bc, b.BlockRows, b.BlockCols)
	for i, n := range p.count {
		b.RowPtr[i+1] = b.RowPtr[i] + n
	}
	b.ColIdx = make([]int32, b.RowPtr[b.BlockRows])
	b.Vals = make([]T, len(b.ColIdx)*br*bc)
	// Block row i's blocks land at its RowPtr offsets.
	sz := int32(br * bc)
	for i := range p.count {
		lo, hi := b.RowPtr[i], b.RowPtr[i+1]
		p.row(i, b.ColIdx[lo:hi], b.Vals[lo*sz:hi*sz])
	}
	return b, nil
}

// BlockFill reports the fill ratio of m's BR×BC blocks — exactly
// BCSRFromCOO(m, br, bc).FillRatio(), on any input: duplicates are summed
// in triplet order before a slot counts, and a slot whose sum is zero does
// not. It runs BCSRFromCOO's block pass, but lays out one block row at a
// time in a scratch row, so it never holds the matrix's block values.
func BlockFill[T matrix.Float](m *matrix.COO[T], br, bc int) (float64, error) {
	if br < 1 || bc < 1 {
		return 0, invalidBlock(br, bc)
	}
	if m.NNZ() == 0 {
		return 1, nil
	}
	p := newBlockPass(m, br, bc, ceilDiv(max(m.Rows, 0), br), ceilDiv(max(m.Cols, 0), bc))
	widest, blocks := 0, 0
	for _, n := range p.count {
		widest = max(widest, int(n))
		blocks += int(n)
	}
	cols := make([]int32, widest)
	vals := make([]T, widest*br*bc)
	nonzeros := 0
	for i, n := range p.count {
		// The count needs no block order, so it skips the sort.
		row := vals[:int(n)*br*bc]
		p.blocks(i, cols[:n])
		p.add(i, cols[:n], row)
		for j, v := range row {
			if v != 0 {
				nonzeros++
			}
			row[j] = 0
		}
	}
	return float64(nonzeros) / float64(blocks*br*bc), nil
}

// blockPass is the block structure of a COO matrix under BR×BC blocks, the
// one pass BCSRFromCOO, BELLFromCOO and BlockFill share: the triplets
// counting-sorted by block row, and how many distinct block columns each
// block row holds. The three differ only in where a block row's blocks
// land (row lays them out wherever its caller points it).
type blockPass[T matrix.Float] struct {
	m      *matrix.COO[T]
	br, bc int
	// rdiv and cdiv divide a row index by BR and a column index by BC.
	rdiv, cdiv divisor
	// order holds triplet indices: block row i's are
	// order[start[i]:start[i+1]], in triplet order.
	order, start []int32
	// count[i] is the number of distinct block columns in block row i.
	count []int32
	// stamp and slot are per block column: the block row that last
	// stamped it (i+1 while counting, -(i+1) while laying out), and its
	// block's index within that row.
	stamp, slot []int32
}

// newBlockPass runs the counting sort and the per-block-row count, in one
// scratch allocation. m's triplets must be in range.
func newBlockPass[T matrix.Float](m *matrix.COO[T], br, bc, blockRows, blockCols int) blockPass[T] {
	nnz := m.NNZ()
	p := blockPass[T]{m: m, br: br, bc: bc, rdiv: newDivisor(br), cdiv: newDivisor(bc)}
	// start is two longer than blockRows for the counting sort.
	scratch := make([]int32, nnz+blockRows+2+blockRows+2*blockCols)
	p.order, scratch = scratch[:nnz], scratch[nnz:]
	p.start, scratch = scratch[:blockRows+2], scratch[blockRows+2:]
	p.count, scratch = scratch[:blockRows], scratch[blockRows:]
	p.stamp, p.slot = scratch[:blockCols], scratch[blockCols:]

	// A stable counting sort of triplet indices by block row.
	for _, r := range m.RowIdx {
		p.start[p.rdiv.div(r)+2]++
	}
	for i := 2; i < len(p.start); i++ {
		p.start[i] += p.start[i-1]
	}
	for t, r := range m.RowIdx {
		i := p.rdiv.div(r) + 1
		p.order[p.start[i]] = int32(t)
		p.start[i]++
	}

	// Count each block row's distinct block columns, stamping a column
	// with its block row + 1.
	for i := range p.count {
		for _, t := range p.order[p.start[i]:p.start[i+1]] {
			if bj := p.cdiv.div(m.ColIdx[t]); p.stamp[bj] != int32(i+1) {
				p.stamp[bj] = int32(i + 1)
				p.count[i]++
			}
		}
	}
	return p
}

// row lays block row i out for a format: its count[i] block columns,
// ascending, into cols, and its blocks into vals.
func (p *blockPass[T]) row(i int, cols []int32, vals []T) {
	p.blocks(i, cols)
	slices.Sort(cols)
	p.add(i, cols, vals)
}

// blocks lists block row i's count[i] distinct block columns into cols, in
// the order its triplets first reach them.
func (p *blockPass[T]) blocks(i int, cols []int32) {
	n := 0
	for _, t := range p.order[p.start[i]:p.start[i+1]] {
		if bj := p.cdiv.div(p.m.ColIdx[t]); p.stamp[bj] != -int32(i+1) {
			p.stamp[bj] = -int32(i + 1)
			cols[n] = int32(bj)
			n++
		}
	}
}

// add sums block row i's triplets, in triplet order, into vals: the
// blocks of the block columns in cols, in cols' order (len(cols)*BR*BC
// values, zero on entry).
func (p *blockPass[T]) add(i int, cols []int32, vals []T) {
	m, br, bc := p.m, p.br, p.bc
	for j, bj := range cols {
		p.slot[bj] = int32(j)
	}
	sz, r0 := br*bc, i*br
	for _, t := range p.order[p.start[i]:p.start[i+1]] {
		c := int(m.ColIdx[t])
		bj := p.cdiv.div(m.ColIdx[t])
		vals[int(p.slot[bj])*sz+(int(m.RowIdx[t])-r0)*bc+c-bj*bc] += m.Vals[t]
	}
}

// divisor divides a non-negative int32 by a fixed d ≥ 1 with a multiply and
// a shift, exactly (Granlund and Montgomery, "Division by invariant
// integers using multiplication", 1994, Theorem 4.2): with ℓ = ⌈log2 d⌉ and
// m = ⌈2^(31+ℓ)/d⌉, a/d = (a·m) >> (31+ℓ) for every a < 2^31, and a·m
// fits in 64 bits. The block pass divides every triplet's row and column
// index by the block size; a hardware divide there costs more than the
// rest of the pass's loop body.
type divisor struct {
	m     uint64
	shift uint
}

func newDivisor(d int) divisor {
	d = min(d, 1<<31) // past 2^31 every quotient is 0, as it is at 2^31
	shift := 31 + uint(bits.Len(uint(d-1)))
	return divisor{m: (1<<shift + uint64(d) - 1) / uint64(d), shift: shift}
}

func (v divisor) div(a int32) int { return int(uint64(a) * v.m >> v.shift) }

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
		reuse:     m.Reuse(),
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

// Reuse is how the rows reuse columns, scanned from the COO the matrix was
// converted from; zero (unsorted) for one built any other way.
func (b *BCSR[T]) Reuse() matrix.Reuse { return b.reuse }

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
