package gpusim

import "math/bits"

// FullMask activates all 32 lanes.
const FullMask uint32 = 0xffffffff

// MaskFirst returns a mask with the first n lanes active (n clamped to
// [0, 32]).
func MaskFirst(n int) uint32 {
	if n <= 0 {
		return 0
	}
	if n >= WarpSize {
		return FullMask
	}
	return (uint32(1) << n) - 1
}

// Warp is the handle a warp-synchronous kernel uses to issue instructions.
// Lanes are numbered 0..31; per-lane operands travel in [WarpSize] arrays.
// Every Gather/Scatter/FMA call models exactly one warp instruction.
type Warp struct {
	dev *Device
	// Block and Warp identify the warp within the launch.
	Block, NumBlocks int
	BlockDim         int
	WarpInBlock      int

	fmaInstrs         int64
	activeLaneFMAs    int64
	memInstrs         int64
	l1Transacts       int64
	l2Transacts       int64
	dramTransacts     int64
	idealTransactions int64
	atomicTransacts   int64

	lineBuf [WarpSize]uint64
	// l1 is a direct-mapped per-warp line cache standing in for the SM's
	// L1/read-only cache, a line in slot line mod L1Lines; it is what lets
	// loop-invariant A loads and consecutive-j B loads avoid repeated
	// L2/DRAM traffic.
	l1 []uint64
}

func (w *Warp) reset(block, numBlocks, blockDim, warpInBlock int) {
	w.Block = block
	w.NumBlocks = numBlocks
	w.BlockDim = blockDim
	w.WarpInBlock = warpInBlock
	w.fmaInstrs = 0
	w.activeLaneFMAs = 0
	w.memInstrs = 0
	w.l1Transacts = 0
	w.l2Transacts = 0
	w.dramTransacts = 0
	w.idealTransactions = 0
	w.atomicTransacts = 0
	if n := w.dev.cfg.L1Lines; n > 0 {
		if len(w.l1) != n {
			w.l1 = make([]uint64, n)
		} else {
			clear(w.l1)
		}
	}
}

// GlobalThread returns the global thread id of the given lane.
func (w *Warp) GlobalThread(lane int) int {
	return w.Block*w.BlockDim + w.WarpInBlock*WarpSize + lane
}

// GlobalWarp returns the warp's global index.
func (w *Warp) GlobalWarp() int {
	return w.Block*(w.BlockDim/WarpSize) + w.WarpInBlock
}

// countTransactions folds one memory instruction's addresses into the
// accounting: one transaction per distinct cache line among active lanes,
// each classified as an L2 hit or a DRAM access.
func (w *Warp) countTransactions(addrs *[WarpSize]uint64, elemBytes int, mask uint32) int64 {
	if mask == 0 {
		return 0
	}
	w.memInstrs++
	line := uint64(w.dev.cfg.CachelineBytes)
	distinct := 0
	for lane := 0; lane < WarpSize; lane++ {
		if mask&(1<<lane) == 0 {
			continue
		}
		l := addrs[lane] / line
		dup := false
		for i := 0; i < distinct; i++ {
			if w.lineBuf[i] == l {
				dup = true
				break
			}
		}
		if !dup {
			w.lineBuf[distinct] = l
			distinct++
		}
	}
	for i := 0; i < distinct; i++ {
		w.touchLine(w.lineBuf[i])
	}
	// Ideal: the active lanes' bytes packed densely.
	active := int64(bits.OnesCount32(mask))
	bytes := active * int64(elemBytes)
	w.idealTransactions += (bytes + int64(line) - 1) / int64(line)
	return int64(distinct)
}

// touchLine classifies one transaction through the warp L1 and device L2.
func (w *Warp) touchLine(line uint64) {
	if n := len(w.l1); n > 0 {
		slot := int(line % uint64(n))
		tag := line | 1<<63
		if w.l1[slot] == tag {
			w.l1Transacts++
			return
		}
		w.l1[slot] = tag
	}
	if w.dev.l2 != nil && w.dev.l2.Access(line) {
		w.l2Transacts++
		return
	}
	w.dramTransacts++
}

// GatherF64 performs one warp gather from a float64 buffer: active lanes
// load buf.Data[idx[lane]] into out[lane]. Coalescing is analysed over the
// 32 lane addresses.
func (w *Warp) GatherF64(buf *F64Buf, idx *[WarpSize]int32, mask uint32, out *[WarpSize]float64) {
	var addrs [WarpSize]uint64
	for lane := 0; lane < WarpSize; lane++ {
		if mask&(1<<lane) == 0 {
			continue
		}
		i := idx[lane]
		addrs[lane] = buf.base + uint64(i)*8
		out[lane] = buf.Data[i]
	}
	w.countTransactions(&addrs, 8, mask)
}

// GatherI32 performs one warp gather from an int32 buffer.
func (w *Warp) GatherI32(buf *I32Buf, idx *[WarpSize]int32, mask uint32, out *[WarpSize]int32) {
	var addrs [WarpSize]uint64
	for lane := 0; lane < WarpSize; lane++ {
		if mask&(1<<lane) == 0 {
			continue
		}
		i := idx[lane]
		addrs[lane] = buf.base + uint64(i)*4
		out[lane] = buf.Data[i]
	}
	w.countTransactions(&addrs, 4, mask)
}

// BroadcastF64 models all active lanes loading the same element (a uniform
// load): one instruction, one transaction.
func (w *Warp) BroadcastF64(buf *F64Buf, idx int32, mask uint32) float64 {
	if mask == 0 {
		return 0
	}
	w.memInstrs++
	w.touchLine((buf.base + uint64(idx)*8) / uint64(w.dev.cfg.CachelineBytes))
	w.idealTransactions++
	return buf.Data[idx]
}

// BroadcastI32 is the int32 uniform load.
func (w *Warp) BroadcastI32(buf *I32Buf, idx int32, mask uint32) int32 {
	if mask == 0 {
		return 0
	}
	w.memInstrs++
	w.touchLine((buf.base + uint64(idx)*4) / uint64(w.dev.cfg.CachelineBytes))
	w.idealTransactions++
	return buf.Data[idx]
}

// ScatterF64 performs one warp store: active lanes write vals[lane] to
// buf.Data[idx[lane]]. Lanes writing the same index are applied in lane
// order (last lane wins), as on real hardware with undefined-but-single
// winner semantics.
func (w *Warp) ScatterF64(buf *F64Buf, idx *[WarpSize]int32, vals *[WarpSize]float64, mask uint32) {
	var addrs [WarpSize]uint64
	for lane := 0; lane < WarpSize; lane++ {
		if mask&(1<<lane) == 0 {
			continue
		}
		i := idx[lane]
		addrs[lane] = buf.base + uint64(i)*8
		buf.Data[i] = vals[lane]
	}
	w.countTransactions(&addrs, 8, mask)
}

// AtomicAddF64 performs one warp atomic-add instruction: active lanes add
// vals[lane] into buf.Data[idx[lane]]. Unlike ScatterF64, colliding lanes
// all take effect. Each transaction pays the device's atomic penalty.
func (w *Warp) AtomicAddF64(buf *F64Buf, idx *[WarpSize]int32, vals *[WarpSize]float64, mask uint32) {
	var addrs [WarpSize]uint64
	for lane := 0; lane < WarpSize; lane++ {
		if mask&(1<<lane) == 0 {
			continue
		}
		i := idx[lane]
		addrs[lane] = buf.base + uint64(i)*8
		buf.Data[i] += vals[lane]
	}
	w.atomicTransacts += w.countTransactions(&addrs, 8, mask)
}

// FMA models one warp fused-multiply-add instruction with the given active
// mask. The arithmetic itself is done by the kernel in plain Go; FMA only
// accounts for it.
func (w *Warp) FMA(mask uint32) {
	if mask == 0 {
		return
	}
	w.fmaInstrs++
	w.activeLaneFMAs += int64(bits.OnesCount32(mask))
}

// FMAN models n back-to-back warp FMA instructions with the same mask.
func (w *Warp) FMAN(n int, mask uint32) {
	if mask == 0 || n <= 0 {
		return
	}
	w.fmaInstrs += int64(n)
	w.activeLaneFMAs += int64(n) * int64(bits.OnesCount32(mask))
}

// ---- Range operations ----
//
// The inner j-loop of an SpMM kernel issues, per lane, `elems` consecutive
// accesses (B row, C row). Modelling each as its own warp instruction makes
// functional simulation quadratically slow, so the range operations below
// account a whole per-lane run in one call: every distinct cache line in a
// lane's range goes through the memory hierarchy once, and the remaining
// accesses are L1 hits by construction (consecutive addresses). The caller
// performs the arithmetic directly on the buffer data.

// laneRange touches the lines of one lane's [addr, addr+bytes) run and
// returns the number of distinct lines.
func (w *Warp) laneRange(addr uint64, bytes int) int64 {
	line := uint64(w.dev.cfg.CachelineBytes)
	first := addr / line
	last := (addr + uint64(bytes) - 1) / line
	for l := first; l <= last; l++ {
		w.touchLine(l)
	}
	return int64(last - first + 1)
}

// GatherF64Range accounts, for each active lane, `elems` consecutive
// float64 loads starting at element idx[lane]. Accounting only — read
// buf.Data directly for the values.
func (w *Warp) GatherF64Range(buf *F64Buf, idx *[WarpSize]int32, elems int, mask uint32) {
	if mask == 0 || elems <= 0 {
		return
	}
	w.memInstrs += int64(elems)
	line := int64(w.dev.cfg.CachelineBytes)
	for lane := 0; lane < WarpSize; lane++ {
		if mask&(1<<lane) == 0 {
			continue
		}
		distinct := w.laneRange(buf.base+uint64(idx[lane])*8, elems*8)
		// The non-distinct accesses re-touch a line a consecutive
		// neighbour just brought in: guaranteed L1 hits.
		w.l1Transacts += int64(elems) - distinct
	}
	active := int64(bits.OnesCount32(mask))
	w.idealTransactions += (active*int64(elems)*8 + line - 1) / line
}

// ScatterF64Range accounts the store-side run (write-allocate: same cost
// shape as the gather).
func (w *Warp) ScatterF64Range(buf *F64Buf, idx *[WarpSize]int32, elems int, mask uint32) {
	w.GatherF64Range(buf, idx, elems, mask)
}

// AtomicAddF64Range accounts, per active lane, `elems` consecutive atomic
// adds. Atomics resolve at L2 on real hardware — no L1 credit — and each
// element is an atomic transaction.
func (w *Warp) AtomicAddF64Range(buf *F64Buf, idx *[WarpSize]int32, elems int, mask uint32) {
	if mask == 0 || elems <= 0 {
		return
	}
	active := int64(bits.OnesCount32(mask))
	w.memInstrs += int64(elems)
	line := int64(w.dev.cfg.CachelineBytes)
	lines := (int64(elems)*8 + line - 1) / line
	// Atomics resolve at L2 (no L1 credit); consecutive same-line atomics
	// serialise into roughly one transaction per line per lane, each
	// paying the atomic penalty.
	_ = buf
	_ = idx
	w.l2Transacts += lines * active
	w.atomicTransacts += lines * active
	w.idealTransactions += (active*int64(elems)*8 + line - 1) / line
}

// GatherF64Coalesced accounts a cooperative load of `elems` consecutive
// float64 values spread across the warp's lanes (the vendor-kernel access
// pattern): ceil(elems/32) instructions, each line touched once.
func (w *Warp) GatherF64Coalesced(buf *F64Buf, startIdx int32, elems int, mask uint32) {
	if mask == 0 || elems <= 0 {
		return
	}
	w.memInstrs += int64((elems + WarpSize - 1) / WarpSize)
	distinct := w.laneRange(buf.base+uint64(startIdx)*8, elems*8)
	w.idealTransactions += distinct
}

// ScatterF64Coalesced accounts the cooperative store.
func (w *Warp) ScatterF64Coalesced(buf *F64Buf, startIdx int32, elems int, mask uint32) {
	w.GatherF64Coalesced(buf, startIdx, elems, mask)
}

// AtomicAddF64Coalesced accounts a cooperative run of `elems` atomic adds
// on consecutive addresses: one atomic transaction per element, resolved at
// L2.
func (w *Warp) AtomicAddF64Coalesced(buf *F64Buf, startIdx int32, elems int, mask uint32) {
	if mask == 0 || elems <= 0 {
		return
	}
	_ = buf
	_ = startIdx
	w.memInstrs += int64((elems + WarpSize - 1) / WarpSize)
	line := int64(w.dev.cfg.CachelineBytes)
	lines := (int64(elems)*8 + line - 1) / line
	w.l2Transacts += lines
	w.atomicTransacts += lines
	w.idealTransactions += lines
}

// StridedBulk accounts, per active lane, `elems` accesses whose addresses
// step by at least one cache line (a transposed-B column walk): no spatial
// reuse, so every access is its own transaction. To keep the functional
// simulation linear, the lines are accounted in bulk — an even split
// between L2 (stride prefetchers and earlier passes catch some) and DRAM —
// instead of being walked through the tag caches one by one.
func (w *Warp) StridedBulk(elems int, mask uint32) {
	if mask == 0 || elems <= 0 {
		return
	}
	active := int64(bits.OnesCount32(mask))
	w.memInstrs += int64(elems)
	total := int64(elems) * active
	w.l2Transacts += total / 2
	w.dramTransacts += total - total/2
	w.idealTransactions += (total*8 + int64(w.dev.cfg.CachelineBytes) - 1) /
		int64(w.dev.cfg.CachelineBytes)
}
