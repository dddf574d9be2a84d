package matrix

import "sync"

// Reuse is what one scan of a matrix's rows, in row-major order, says about
// how consecutive rows reuse columns — the B rows a kernel reads for them.
// The kernels' slab rule reads it; the zero value is no scan, and reads as
// unsorted.
type Reuse struct {
	// Rows and Pairs are the rows scanned and their stored entries.
	Rows, Pairs int
	// Shared is the entries whose column the row before also holds.
	Shared int
	// Span is the sum over rows of last column − first column.
	Span int
	// Sorted: the rows come in order and each row's columns ascend
	// (repeats allowed). Without it Shared and Span mean nothing.
	Sorted bool
}

// ScanReuse scans a matrix given as triplet row and column indices, which
// must be row-sorted for the scan to count anything: one pass, each row's
// columns merged with the row before's by two pointers, no allocation.
func ScanReuse(rows int, rowIdx, colIdx []int32) Reuse {
	u := Reuse{Rows: rows, Pairs: len(colIdx), Sorted: true}
	prev, start := 0, 0 // the row before's entries, [prev, start)
	for p := 0; p < len(colIdx); {
		q := p + 1
		for q < len(colIdx) && rowIdx[q] == rowIdx[p] {
			if colIdx[q] < colIdx[q-1] {
				return Reuse{}
			}
			q++
		}
		if p > 0 && rowIdx[p] < rowIdx[p-1] {
			return Reuse{}
		}
		if p > 0 && rowIdx[p] != rowIdx[p-1]+1 {
			prev = p // an empty row between: nothing shared
		}
		u.Span += int(colIdx[q-1] - colIdx[p])
		for x, y := prev, p; x < start && y < q; {
			switch {
			case colIdx[x] < colIdx[y]:
				x++
			case colIdx[x] > colIdx[y]:
				y++
			default:
				u.Shared++
				x++
				y++
			}
		}
		prev, start, p = p, q, q
	}
	return u
}

// reuseMemo keeps a COO's Reuse from its first use until its triplets
// change: n is len(Vals)+1 when p was scanned, 0 before.
type reuseMemo struct {
	mu sync.Mutex
	n  int
	p  Reuse
}

// Reuse scans m on first use and again after m's own methods change its
// triplets (Append, SortRowMajor, Dedup); the kernels read it on every
// multiply whose B exceeds the L2. Code that writes the triplet arrays
// directly and multiplies m again must rescan by sorting.
func (m *COO[T]) Reuse() Reuse {
	r := &m.reuse
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.n != len(m.Vals)+1 {
		r.p, r.n = ScanReuse(m.Rows, m.RowIdx, m.ColIdx), len(m.Vals)+1
	}
	return r.p
}
