// Package delta implements mutation overlays for served sparse matrices.
//
// A served matrix is prepared once into its plan's format; re-preparing on
// every edit would put an O(prepare) cost on a O(row) change. Instead the
// registry keeps the prepared base immutable and accumulates edits in an
// Overlay: a sorted row-major delta-COO where each entry is either a value
// override (insert or update) or a tombstone (structural delete). At
// multiply time the base kernel runs unchanged and Apply recomputes only
// the dirty rows on top of its output.
//
// The merge order is bitwise-defined: a dirty row is recomputed by
// merge-scanning the base row and the overlay row in ascending column
// order, accumulating c[j] += v*b[j] per entry exactly as the serial CSR
// kernel does. Every servable kernel variant preserves that per-row,
// column-ascending serial accumulation (the repo's bitwise contract), so
// base-kernel-plus-Apply produces bit-identical output to running any
// servable variant on the fully merged matrix. Compaction — materializing
// the merged matrix and re-preparing it — therefore never changes a single
// result bit, only the cost of producing it.
//
// Tombstones are structural: a deleted coordinate's entry is skipped
// entirely rather than multiplied as 0.0 (accumulating +0.0 could flip a
// -0.0 partial sum and break bitwise identity with the merged matrix,
// which simply lacks the entry).
package delta

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/matrix"
)

// Op is one mutation: set (insert-or-update) the value at (Row, Col), or
// delete the coordinate when Del is true. Ops within a batch apply in
// order, so a later op on the same coordinate wins.
type Op struct {
	Row, Col int32
	Val      float64
	Del      bool
}

// Overlay is an immutable delta-COO snapshot over an immutable base.
// Entries are unique coordinates in row-major order; Del marks tombstones.
// Extend returns a new Overlay sharing the base and its row pointer, so a
// snapshot captured by an in-flight multiply stays valid forever.
type Overlay struct {
	base *matrix.COO[float64]
	// rowPtr is a CSR-style row pointer into the (canonical, row-major
	// sorted) base, shared across every Overlay derived from it.
	rowPtr []int32

	RowIdx []int32
	ColIdx []int32
	Vals   []float64
	Del    []bool

	live int // entries that are not tombstones
}

// NewOverlay returns an empty overlay over base. The base must be
// canonical (row-major sorted, unique coordinates), which is what the
// serving registry guarantees for every registered matrix.
func NewOverlay(base *matrix.COO[float64]) *Overlay {
	return &Overlay{base: base, rowPtr: rowPtrOf(base)}
}

// rowPtrOf builds the CSR row pointer of a canonical COO.
func rowPtrOf(base *matrix.COO[float64]) []int32 {
	ptr := make([]int32, base.Rows+1)
	for _, r := range base.RowIdx {
		ptr[r+1]++
	}
	for i := 0; i < base.Rows; i++ {
		ptr[i+1] += ptr[i]
	}
	return ptr
}

// Base returns the immutable base matrix this overlay applies over.
func (o *Overlay) Base() *matrix.COO[float64] { return o.base }

// NNZ reports the number of overlay entries, tombstones included — the
// quantity that prices overlay application.
func (o *Overlay) NNZ() int {
	if o == nil {
		return 0
	}
	return len(o.RowIdx)
}

// Live reports the number of non-tombstone overlay entries.
func (o *Overlay) Live() int {
	if o == nil {
		return 0
	}
	return o.live
}

// Bytes estimates the overlay's heap footprint (entries only; the row
// pointer is shared with every overlay over the same base).
func (o *Overlay) Bytes() int {
	if o == nil {
		return 0
	}
	return len(o.RowIdx)*(4+4+1) + len(o.Vals)*8
}

// MergedNNZ reports the nonzero count of the merged matrix without
// materializing it: base entries minus masked ones, plus live inserts.
func (o *Overlay) MergedNNZ() int {
	if o == nil {
		return 0
	}
	nnz := o.base.NNZ()
	for i := range o.RowIdx {
		if o.inBase(o.RowIdx[i], o.ColIdx[i]) {
			if o.Del[i] {
				nnz-- // tombstone removes a base entry; an override keeps it
			}
		} else if !o.Del[i] {
			nnz++ // live insert at a coordinate the base lacks
		}
	}
	return nnz
}

// inBase reports whether coordinate (r, c) exists in the base.
func (o *Overlay) inBase(r, c int32) bool {
	lo, hi := int(o.rowPtr[r]), int(o.rowPtr[r+1])
	cols := o.base.ColIdx[lo:hi]
	i := sort.Search(len(cols), func(i int) bool { return cols[i] >= c })
	return i < len(cols) && cols[i] == c
}

// Extend returns a new overlay with ops applied on top of o, sharing o's
// base. A nil receiver is an empty overlay over base (pass the base so the
// first mutation can build the row pointer). Ops are validated against the
// base's dimensions; on error the receiver is unchanged and no overlay is
// returned. Deletes of coordinates absent from both the base and the live
// overlay are dropped (they mask nothing and would only tax Apply).
func (o *Overlay) Extend(base *matrix.COO[float64], ops []Op) (*Overlay, error) {
	if o == nil {
		o = NewOverlay(base)
	}
	rows, cols := int32(o.base.Rows), int32(o.base.Cols)
	for i, op := range ops {
		if op.Row < 0 || op.Row >= rows || op.Col < 0 || op.Col >= cols {
			return nil, fmt.Errorf("delta: op %d: coordinate (%d,%d) outside %dx%d",
				i, op.Row, op.Col, rows, cols)
		}
		if !op.Del && (math.IsNaN(op.Val) || math.IsInf(op.Val, 0)) {
			return nil, fmt.Errorf("delta: op %d: non-finite value at (%d,%d)", i, op.Row, op.Col)
		}
	}

	// Canonicalize the batch: stable row-major sort, then keep the last op
	// per coordinate (batch order defines precedence for duplicates).
	batch := make([]Op, len(ops))
	copy(batch, ops)
	sort.SliceStable(batch, func(i, j int) bool {
		if batch[i].Row != batch[j].Row {
			return batch[i].Row < batch[j].Row
		}
		return batch[i].Col < batch[j].Col
	})
	w := 0
	for i := 0; i < len(batch); {
		j := i + 1
		for j < len(batch) && batch[j].Row == batch[i].Row && batch[j].Col == batch[i].Col {
			j++
		}
		batch[w] = batch[j-1]
		w++
		i = j
	}
	batch = batch[:w]

	// Merge-scan existing entries with the batch; batch wins on equal
	// coordinates. Copy-on-write: o's slices are never touched.
	n := &Overlay{
		base:   o.base,
		rowPtr: o.rowPtr,
		RowIdx: make([]int32, 0, len(o.RowIdx)+len(batch)),
		ColIdx: make([]int32, 0, len(o.ColIdx)+len(batch)),
		Vals:   make([]float64, 0, len(o.Vals)+len(batch)),
		Del:    make([]bool, 0, len(o.Del)+len(batch)),
	}
	push := func(r, c int32, v float64, del bool) {
		if del && !o.inBase(r, c) {
			return // masks nothing: structural no-op
		}
		n.RowIdx = append(n.RowIdx, r)
		n.ColIdx = append(n.ColIdx, c)
		n.Vals = append(n.Vals, v)
		n.Del = append(n.Del, del)
		if !del {
			n.live++
		}
	}
	ei, bi := 0, 0
	for ei < len(o.RowIdx) || bi < len(batch) {
		switch {
		case bi == len(batch):
			push(o.RowIdx[ei], o.ColIdx[ei], o.Vals[ei], o.Del[ei])
			ei++
		case ei == len(o.RowIdx):
			push(batch[bi].Row, batch[bi].Col, batch[bi].Val, batch[bi].Del)
			bi++
		default:
			er, ec := o.RowIdx[ei], o.ColIdx[ei]
			br, bc := batch[bi].Row, batch[bi].Col
			switch {
			case er < br || (er == br && ec < bc):
				push(er, ec, o.Vals[ei], o.Del[ei])
				ei++
			case br < er || (br == er && bc < ec):
				push(br, bc, batch[bi].Val, batch[bi].Del)
				bi++
			default: // same coordinate: the new batch wins
				push(br, bc, batch[bi].Val, batch[bi].Del)
				ei++
				bi++
			}
		}
	}
	return n, nil
}

// Apply recomputes the overlay's dirty rows of c on top of the base
// kernel's output, using the first k columns of b and c. A nil or empty
// overlay is a no-op that allocates nothing — the clean-matrix hot path.
//
// Each dirty row is cleared and re-accumulated from the merge-scan of base
// and overlay entries in ascending column order through matrix.Axpy, whose
// result the kernels' row entry (matrix.AxpyRow) reproduces pair for pair,
// so the accumulation matches bit for bit.
func (o *Overlay) Apply(c, b *matrix.Dense[float64], k int) {
	if o == nil || len(o.RowIdx) == 0 {
		return
	}
	for i := 0; i < len(o.RowIdx); {
		r := o.RowIdx[i]
		j := i + 1
		for j < len(o.RowIdx) && o.RowIdx[j] == r {
			j++
		}
		o.applyRow(int(r), i, j, c, b, k)
		i = j
	}
}

// applyRow recomputes row r of c from the base row merged with overlay
// entries [lo, hi).
func (o *Overlay) applyRow(r, lo, hi int, c, b *matrix.Dense[float64], k int) {
	crow := c.Data[r*c.Stride : r*c.Stride+k]
	clear(crow)
	bs, be := int(o.rowPtr[r]), int(o.rowPtr[r+1])
	ov := lo
	for bs < be || ov < hi {
		var col int32
		var val float64
		switch {
		case ov == hi:
			col, val = o.base.ColIdx[bs], o.base.Vals[bs]
			bs++
		case bs == be:
			if o.Del[ov] {
				ov++
				continue
			}
			col, val = o.ColIdx[ov], o.Vals[ov]
			ov++
		default:
			bc, oc := o.base.ColIdx[bs], o.ColIdx[ov]
			switch {
			case bc < oc:
				col, val = bc, o.base.Vals[bs]
				bs++
			case oc < bc:
				if o.Del[ov] {
					ov++
					continue
				}
				col, val = oc, o.Vals[ov]
				ov++
			default: // overlay overrides (or deletes) the base entry
				bs++
				if o.Del[ov] {
					ov++
					continue
				}
				col, val = oc, o.Vals[ov]
				ov++
			}
		}
		matrix.Axpy(crow, b.Data[int(col)*b.Stride:], val, k)
	}
}

// Merge materializes the merged matrix: base entries overridden or masked
// by the overlay, plus live inserts, in canonical row-major order. The
// result shares nothing with the base, so it can become a new immutable
// base. A nil overlay clones nothing and returns nil.
func (o *Overlay) Merge() *matrix.COO[float64] {
	if o == nil {
		return nil
	}
	m := matrix.NewCOO[float64](o.base.Rows, o.base.Cols, o.MergedNNZ())
	bs, ov := 0, 0
	bn, on := o.base.NNZ(), len(o.RowIdx)
	push := func(r, c int32, v float64) {
		m.RowIdx = append(m.RowIdx, r)
		m.ColIdx = append(m.ColIdx, c)
		m.Vals = append(m.Vals, v)
	}
	for bs < bn || ov < on {
		switch {
		case ov == on:
			push(o.base.RowIdx[bs], o.base.ColIdx[bs], o.base.Vals[bs])
			bs++
		case bs == bn:
			if !o.Del[ov] {
				push(o.RowIdx[ov], o.ColIdx[ov], o.Vals[ov])
			}
			ov++
		default:
			br, bc := o.base.RowIdx[bs], o.base.ColIdx[bs]
			or, oc := o.RowIdx[ov], o.ColIdx[ov]
			switch {
			case br < or || (br == or && bc < oc):
				push(br, bc, o.base.Vals[bs])
				bs++
			case or < br || (or == br && oc < bc):
				if !o.Del[ov] {
					push(or, oc, o.Vals[ov])
				}
				ov++
			default:
				if !o.Del[ov] {
					push(or, oc, o.Vals[ov])
				}
				bs++
				ov++
			}
		}
	}
	return m
}

// Rebase re-expresses the overlay over a new base — the freshly merged
// matrix a compaction installs. Entries already represented in the new
// base (same value at the same coordinate, or a tombstone of an absent
// coordinate) are dropped; what remains are exactly the mutations that
// landed after the compaction's merge snapshot. Rebasing an overlay onto
// its own Merge() therefore yields nil: the matrix is clean.
func (o *Overlay) Rebase(base *matrix.COO[float64]) *Overlay {
	if o == nil {
		return nil
	}
	n := NewOverlay(base)
	for i := range o.RowIdx {
		r, c := o.RowIdx[i], o.ColIdx[i]
		lo, hi := int(n.rowPtr[r]), int(n.rowPtr[r+1])
		cols := base.ColIdx[lo:hi]
		p := sort.Search(len(cols), func(j int) bool { return cols[j] >= c })
		present := p < len(cols) && cols[p] == c
		if o.Del[i] {
			if !present {
				continue // already absent from the new base
			}
		} else if present && sameBits(base.Vals[lo+p], o.Vals[i]) {
			continue // already merged into the new base
		}
		n.RowIdx = append(n.RowIdx, r)
		n.ColIdx = append(n.ColIdx, c)
		n.Vals = append(n.Vals, o.Vals[i])
		n.Del = append(n.Del, o.Del[i])
		if !o.Del[i] {
			n.live++
		}
	}
	if len(n.RowIdx) == 0 {
		return nil
	}
	return n
}

func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b)
}

// Ops returns the overlay's entries as a mutation batch — the wire and
// journal form of a pending overlay. Applying the result to an empty
// overlay over the same base reproduces o exactly.
func (o *Overlay) Ops() []Op {
	if o == nil {
		return nil
	}
	ops := make([]Op, len(o.RowIdx))
	for i := range ops {
		ops[i] = Op{Row: o.RowIdx[i], Col: o.ColIdx[i], Val: o.Vals[i], Del: o.Del[i]}
	}
	return ops
}

// CostModel decides when an overlay has outgrown incremental application.
// Every multiply against a dirty matrix pays a measured overlay-apply tax;
// compaction pays a one-time re-preparation. Compact when the cumulative
// tax crosses BreakEven times the measured prepare cost, or when the
// overlay's entry count reaches MaxRatio of the base nnz (past that the
// per-multiply tax itself is no longer small, whatever the clock says).
type CostModel struct {
	// BreakEven multiplies the measured prepare seconds: cumulative
	// overlay-apply seconds beyond it trigger compaction. <= 0 disables
	// the time trigger.
	BreakEven float64
	// MaxRatio caps overlay nnz / base nnz. <= 0 disables the ratio
	// trigger.
	MaxRatio float64
}

// ShouldCompact reports whether the overlay's measured cost crosses the
// model's threshold.
func (cm CostModel) ShouldCompact(overlayNNZ, baseNNZ int, applySeconds, prepareSeconds float64) bool {
	if overlayNNZ == 0 {
		return false
	}
	if cm.MaxRatio > 0 && baseNNZ > 0 &&
		float64(overlayNNZ) >= cm.MaxRatio*float64(baseNNZ) {
		return true
	}
	if cm.BreakEven > 0 && prepareSeconds > 0 &&
		applySeconds >= cm.BreakEven*prepareSeconds {
		return true
	}
	return false
}
