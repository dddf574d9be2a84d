package gpusim

import (
	"fmt"

	"repro/internal/formats"
	"repro/internal/kernels"
	"repro/internal/matrix"
)

// This file holds the suite's "OpenMP target offload" GPU kernels: the
// straightforward thread-per-row (or thread-per-nonzero) translations of
// the CPU loops, exactly the kind of code the thesis' `#pragma omp target
// teams distribute parallel for` produced. They are deliberately naive in
// their memory behaviour — every lane walks B and C rows privately
// (uncoalesced across lanes), COO accumulates with per-element atomics, and
// warps diverge on irregular row lengths — because that is the baseline the
// cuSparse study (Study 7) compares the tuned vendorlib kernels against.
//
// Every SpMM, naive or tuned, goes through one launch scaffold, Offload,
// and accumulates through one product loop, Operands.MulAdd. The inner
// j-loops are accounted with the Warp range operations and the arithmetic
// is done directly on the device buffers, keeping the functional
// simulation linear in real work.

const threadsPerBlock = 256

// Kernel is one SpMM launch as an entry hands it to Offload: A's shape and
// arrays, and the grid and warp body that read them.
type Kernel struct {
	// Rows and Cols are A's shape.
	Rows, Cols int
	// Ptr (a row pointer, or COO's row index; nil for ELL and BELL), Idx
	// and Vals are A's arrays, uploaded in that order.
	Ptr, Idx []int32
	Vals     []float64
	// TransB transposes B on the device before the launch, and the body
	// reads Bᵀ.
	TransB bool
	// Threads is how many threads the launch needs, run in blocks of 256;
	// Body runs once per warp.
	Threads int
	Body    func(w *Warp, o *Operands)
}

// Operands are one launch's device buffers: A's arrays, B's first K
// columns (or Bᵀ) and C, Rows×K, each compact.
type Operands struct {
	Ptr, Idx *I32Buf
	Vals     *F64Buf
	B, C     *F64Buf
	K        int
	// transB says B holds Bᵀ, whose rows are n = A's Cols long.
	transB bool
	n      int
}

// CRow is C's row r.
func (o *Operands) CRow(r int) []float64 { return o.C.Data[r*o.K : (r+1)*o.K] }

// MulAdd adds v·B[col, :K] into dst, which has K elements. It is the one
// product loop of every SpMM body: under Bᵀ it reads the column of Bᵀ a
// stride of n apart.
func (o *Operands) MulAdd(dst []float64, v float64, col int32) {
	i, step := int(col)*o.K, 1
	if o.transB {
		i, step = int(col), o.n
	}
	for j := range dst {
		dst[j] += v * o.B.Data[i]
		i += step
	}
}

// loadB charges each lane in m its read of B[col[lane], :K]: a run of K
// elements, or under Bᵀ a column walk, one line per element.
func (o *Operands) loadB(w *Warp, col *[WarpSize]int32, m uint32) {
	if o.transB {
		w.StridedBulk(o.K, m)
		return
	}
	var idx [WarpSize]int32
	for lane := range idx {
		idx[lane] = col[lane] * int32(o.K)
	}
	w.GatherF64Range(o.B, &idx, o.K, m)
}

// SpMM runs a's naive offload kernel on the device and returns the
// modelled launch. C[:, :k] is overwritten. Under kernels.InnerTransB the
// device transposes B first (CSR only); a format or inner loop without a
// kernel is a kernels.ErrSpec.
func SpMM(d *Device, a formats.Sparse, b, c *matrix.Dense[float64], k int, inner kernels.Inner) (LaunchResult, error) {
	kern, err := naiveKernel(a, inner)
	if err != nil {
		return LaunchResult{}, err
	}
	return Offload(d, kern, b, c, k)
}

// naiveKernel describes a's offload kernel: COO's atomic thread-per-nonzero
// body, or the blocked row walk, of which CSR and ELL are the 1×1 case.
func naiveKernel(a formats.Sparse, inner kernels.Inner) (Kernel, error) {
	if _, csr := a.(*formats.CSR[float64]); inner != kernels.InnerTiled && !(csr && inner == kernels.InnerTransB) {
		return Kernel{}, fmt.Errorf("%w: no GPU kernel for %T under inner loop %d", kernels.ErrSpec, a, inner)
	}
	switch a := a.(type) {
	case *matrix.COO[float64]:
		nnz := a.NNZ()
		return Kernel{Rows: a.Rows, Cols: a.Cols, Ptr: a.RowIdx, Idx: a.ColIdx, Vals: a.Vals,
			Threads: nnz, Body: cooBody(nnz)}, nil
	case *formats.CSR[float64]:
		w := rowWalk{rows: a.Rows, cols: a.Cols, br: 1, bc: 1}
		return w.kernel(a.RowPtr, a.ColIdx, a.Vals, inner == kernels.InnerTransB), nil
	case *formats.ELL[float64]:
		w := rowWalk{rows: a.Rows, cols: a.Cols, br: 1, bc: 1, width: a.Width,
			colMajor: a.Layout == formats.ColMajor, rowLen: a.RowLen}
		return w.kernel(nil, a.ColIdx, a.Vals, false), nil
	case *formats.BCSR[float64]:
		w := rowWalk{rows: a.Rows, cols: a.Cols, br: a.BR, bc: a.BC, fill: true}
		return w.kernel(a.RowPtr, a.ColIdx, a.Vals, false), nil
	case *formats.BELL[float64]:
		w := rowWalk{rows: a.Rows, cols: a.Cols, br: a.BR, bc: a.BC, width: a.Width, fill: true}
		return w.kernel(nil, a.ColIdx, a.Vals, false), nil
	}
	return Kernel{}, fmt.Errorf("%w: no GPU kernel for %T", kernels.ErrSpec, a)
}

// Offload is the launch scaffold of every SpMM entry, naive or tuned: it
// checks the shapes, uploads A's arrays, B's first k columns (transposed on
// the device under TransB) and C, launches kern.Body over them, and
// downloads C[:, :k]. The device's memory is released on return.
func Offload(d *Device, kern Kernel, b, c *matrix.Dense[float64], k int) (LaunchResult, error) {
	switch {
	case k < 0 || k > b.Cols || k > c.Cols:
		return LaunchResult{}, fmt.Errorf("%w: k=%d with B %dx%d, C %dx%d", ErrLaunch, k, b.Rows, b.Cols, c.Rows, c.Cols)
	case b.Rows != kern.Cols || c.Rows != kern.Rows:
		return LaunchResult{}, fmt.Errorf("%w: A is %dx%d, B %dx%d, C %dx%d", ErrLaunch, kern.Rows, kern.Cols, b.Rows, b.Cols, c.Rows, c.Cols)
	}
	defer d.FreeAll()
	o, transpose, err := upload(d, kern, b, k)
	if err != nil {
		return LaunchResult{}, err
	}
	res, err := d.Launch(gridFor(kern.Threads), threadsPerBlock, func(w *Warp) { kern.Body(w, o) })
	if err != nil {
		return LaunchResult{}, err
	}
	for i := 0; i < c.Rows; i++ {
		copy(c.Data[i*c.Stride:i*c.Stride+k], o.CRow(i))
	}
	return transpose.then(res), nil
}

// upload allocates a launch's operands in the order the model's buffer
// addresses depend on: A's arrays, B, Bᵀ, C. Under TransB it also returns
// the transpose's launch, which the SpMM's result includes.
func upload(d *Device, kern Kernel, b *matrix.Dense[float64], k int) (o *Operands, transpose LaunchResult, err error) {
	o = &Operands{K: k, transB: kern.TransB, n: kern.Cols}
	if kern.Ptr != nil {
		if o.Ptr, err = d.AllocI32(len(kern.Ptr), kern.Ptr); err != nil {
			return nil, LaunchResult{}, err
		}
	}
	if o.Idx, err = d.AllocI32(len(kern.Idx), kern.Idx); err != nil {
		return nil, LaunchResult{}, err
	}
	if o.Vals, err = d.AllocF64(len(kern.Vals), kern.Vals); err != nil {
		return nil, LaunchResult{}, err
	}
	if o.B, err = d.AllocF64(b.Rows*k, nil); err != nil {
		return nil, LaunchResult{}, err
	}
	for i := 0; i < b.Rows; i++ {
		copy(o.B.Data[i*k:(i+1)*k], b.Data[i*b.Stride:i*b.Stride+k])
	}
	if kern.TransB {
		if o.B, transpose, err = transposeB(d, o.B, b.Rows, k); err != nil {
			return nil, LaunchResult{}, err
		}
	}
	if o.C, err = d.AllocF64(kern.Rows*k, nil); err != nil {
		return nil, LaunchResult{}, err
	}
	return o, transpose, nil
}

func gridFor(work int) int {
	if work <= 0 {
		return 0
	}
	return (work + threadsPerBlock - 1) / threadsPerBlock
}

// transposeB launches an on-device blocked transpose of an n×k dense matrix
// (coalesced reads, strided writes) and performs it functionally, returning
// the k×n buffer and the launch. Study 8's rule applies on the GPU too: the
// transposed kernel pays for producing Bᵀ.
func transposeB(d *Device, src *F64Buf, n, k int) (*F64Buf, LaunchResult, error) {
	dst, err := d.AllocF64(n*k, nil)
	if err != nil {
		return nil, LaunchResult{}, err
	}
	for i := 0; i < n; i++ {
		for j := 0; j < k; j++ {
			dst.Data[j*n+i] = src.Data[i*k+j]
		}
	}
	// One warp per 32 rows: coalesced source reads, strided destination
	// writes.
	res, err := d.Launch(gridFor(n), threadsPerBlock, func(w *Warp) {
		base := w.GlobalThread(0)
		if base >= n {
			return
		}
		rows := min(WarpSize, n-base)
		mask := MaskFirst(rows)
		var idx [WarpSize]int32
		for lane := 0; lane < rows; lane++ {
			idx[lane] = int32((base + lane) * k)
		}
		w.GatherF64Range(src, &idx, k, mask)
		w.StridedBulk(k, mask)
	})
	if err != nil {
		return nil, LaunchResult{}, err
	}
	return dst, res, nil
}

// cooBody is the naive thread-per-nonzero COO kernel: every contribution
// lands in C with an atomic add, so rows that collide serialise.
func cooBody(nnz int) func(w *Warp, o *Operands) {
	return func(w *Warp, o *Operands) {
		base := w.GlobalThread(0)
		if base >= nnz {
			return
		}
		n := min(WarpSize, nnz-base)
		mask := MaskFirst(n)
		var pIdx, rr, cc, cIdx0 [WarpSize]int32
		var vv [WarpSize]float64
		for lane := 0; lane < n; lane++ {
			pIdx[lane] = int32(base + lane)
		}
		w.GatherI32(o.Ptr, &pIdx, mask, &rr)
		w.GatherI32(o.Idx, &pIdx, mask, &cc)
		w.GatherF64(o.Vals, &pIdx, mask, &vv)
		for lane := 0; lane < n; lane++ {
			cIdx0[lane] = rr[lane] * int32(o.K)
		}
		o.loadB(w, &cc, mask)
		w.FMAN(o.K, mask)
		w.AtomicAddF64Range(o.C, &cIdx0, o.K, mask)
		for lane := 0; lane < n; lane++ {
			o.MulAdd(o.CRow(int(rr[lane])), vv[lane], cc[lane])
		}
	}
}

// rowWalk is the naive thread-per-row kernel of every row format: lane i
// owns C row i and walks the slots of its block row in lockstep with the
// warp, running the block's bc sub-columns per slot. With a row pointer
// (CSR, BCSR) the slots are the block row's extent, and lanes with shorter
// rows idle while the warp's longest finishes (thread-per-row divergence).
// Without one (ELL, BELL) every block row has width slots, padding
// included: perfect lockstep, the fixed-shape price of ELL on SIMT
// hardware. CSR and ELL are the 1×1 block.
type rowWalk struct {
	rows, cols int
	br, bc     int
	// width is every block row's slot count when the kernel has no
	// block-row pointer (Operands.Ptr is nil).
	width int
	// colMajor lays slot s of block row i at s·blockRows + i (ELL's
	// column-major layout, whose adjacent lanes read adjacent slots),
	// otherwise at i·width + s.
	colMajor bool
	// rowLen, when set (ELL), is each row's count of real slots: the
	// slots past it are padding, charged but never multiplied.
	rowLen []int32
	// fill says a zero value is in-block fill (BCSR, BELL), charged but
	// never multiplied. Everywhere else a stored zero is an entry and is
	// multiplied, so 0·Inf reaches C as it does under csr-serial.
	fill bool
}

// kernel is the walk's launch over A's arrays: one thread per C row.
func (rw rowWalk) kernel(ptr, idx []int32, vals []float64, transB bool) Kernel {
	return Kernel{Rows: rw.rows, Cols: rw.cols, Ptr: ptr, Idx: idx, Vals: vals, TransB: transB,
		Threads: rw.rows, Body: rw.body}
}

func (rw rowWalk) body(w *Warp, o *Operands) {
	base := w.GlobalThread(0)
	if base >= rw.rows {
		return
	}
	n := min(WarpSize, rw.rows-base)
	mask := MaskFirst(n)
	k := o.K
	blockRows, blkSize := int32((rw.rows+rw.br-1)/rw.br), int32(rw.br*rw.bc)
	var bri, next, start, length, slot, bcol, vIdx, col, cIdx0 [WarpSize]int32
	var vv [WarpSize]float64
	for lane := 0; lane < n; lane++ {
		bri[lane] = int32((base + lane) / rw.br)
		next[lane] = bri[lane] + 1
		cIdx0[lane] = int32((base + lane) * k)
	}
	ptr, slots := o.Ptr != nil, rw.width
	if ptr {
		// Block-row extents: two coalesced int32 gathers.
		w.GatherI32(o.Ptr, &bri, mask, &start)
		w.GatherI32(o.Ptr, &next, mask, &length)
		slots = 0
		for lane := 0; lane < n; lane++ {
			length[lane] -= start[lane]
			slots = max(slots, int(length[lane]))
		}
	}
	// Zero the output rows.
	w.ScatterF64Range(o.C, &cIdx0, k, mask)
	for lane := 0; lane < n; lane++ {
		clear(o.CRow(base + lane))
	}
	for t := 0; t < slots; t++ {
		m := mask
		for lane := 0; lane < n; lane++ {
			switch {
			case ptr && int32(t) >= length[lane]:
				m &^= 1 << lane
			case ptr:
				slot[lane] = start[lane] + int32(t)
			case rw.colMajor:
				slot[lane] = int32(t)*blockRows + bri[lane]
			default:
				slot[lane] = bri[lane]*int32(rw.width) + int32(t)
			}
		}
		w.GatherI32(o.Idx, &slot, m, &bcol)
		for cc := 0; cc < rw.bc; cc++ {
			m2 := uint32(0)
			for lane := 0; lane < n; lane++ {
				c := int(bcol[lane])*rw.bc + cc
				if m&(1<<lane) == 0 || c >= rw.cols {
					continue
				}
				m2 |= 1 << lane
				vIdx[lane] = slot[lane]*blkSize + int32((base+lane)%rw.br*rw.bc+cc)
				col[lane] = int32(c)
			}
			if m2 == 0 {
				continue
			}
			// Per-lane private j-loop over B and C rows (uncoalesced
			// across lanes).
			w.GatherF64(o.Vals, &vIdx, m2, &vv)
			o.loadB(w, &col, m2)
			w.GatherF64Range(o.C, &cIdx0, k, m2)
			w.ScatterF64Range(o.C, &cIdx0, k, m2)
			w.FMAN(k, m2)
			for lane := 0; lane < n; lane++ {
				if m2&(1<<lane) == 0 || rw.fill && vv[lane] == 0 || rw.rowLen != nil && int32(t) >= rw.rowLen[base+lane] {
					continue
				}
				o.MulAdd(o.CRow(base+lane), vv[lane], col[lane])
			}
		}
	}
}
