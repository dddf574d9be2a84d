package formats

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"

	"repro/internal/matrix"
)

// The thesis' interim answer to its slow BCSR formatter was "a small tool
// that would format the BCSR matrix into a given block configuration, and
// then save that to a file, which the BCSR kernels could quickly load and
// use" (§6.3.2). This file implements that on-disk format: a little-endian
// binary encoding with a magic header, used by cmd/bcsrfmt.

const bcsrMagic = "BCSR0001"

// WriteBCSR serialises b to w in the suite's binary BCSR format. Values are
// always stored as float64 on disk regardless of the in-memory type.
func WriteBCSR[T matrix.Float](w io.Writer, b *BCSR[T]) error {
	if err := b.Validate(); err != nil {
		return fmt.Errorf("formats: refusing to write invalid BCSR: %w", err)
	}
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(bcsrMagic); err != nil {
		return err
	}
	hdr := []int64{
		int64(b.Rows), int64(b.Cols),
		int64(b.BR), int64(b.BC),
		int64(b.BlockRows), int64(b.BlockCols),
		int64(len(b.ColIdx)),
	}
	for _, v := range hdr {
		if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
			return err
		}
	}
	if err := binary.Write(bw, binary.LittleEndian, b.RowPtr); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, b.ColIdx); err != nil {
		return err
	}
	buf := make([]byte, 8)
	for _, v := range b.Vals {
		binary.LittleEndian.PutUint64(buf, math.Float64bits(float64(v)))
		if _, err := bw.Write(buf); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadBCSR deserialises a BCSR matrix written by WriteBCSR.
func ReadBCSR[T matrix.Float](r io.Reader) (*BCSR[T], error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(bcsrMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("formats: reading BCSR magic: %w", err)
	}
	if string(magic) != bcsrMagic {
		return nil, invalidf("bcsrio: bad magic %q", magic)
	}
	hdr := make([]int64, 7)
	for i := range hdr {
		if err := binary.Read(br, binary.LittleEndian, &hdr[i]); err != nil {
			return nil, fmt.Errorf("formats: reading BCSR header: %w", err)
		}
	}
	for _, v := range hdr {
		if v < 0 || v > math.MaxInt32 {
			return nil, invalidf("bcsrio: nonsense header %v", hdr)
		}
	}
	rows, cols := int(hdr[0]), int(hdr[1])
	brz, bcz := int(hdr[2]), int(hdr[3])
	blockRows, blockCols := int(hdr[4]), int(hdr[5])
	nblocks := int(hdr[6])
	if brz < 1 || bcz < 1 {
		return nil, invalidf("bcsrio: nonsense header %v", hdr)
	}
	const maxReasonable = 1 << 34
	slots := brz * bcz
	if nblocks > 0 && slots > maxReasonable/nblocks {
		return nil, invalidf("bcsrio: implausible block count %d", nblocks)
	}
	// The header's sizes are claims: read the body they declare before
	// allocating anything of their size, so that a short input fails
	// having allocated no more than it holds.
	need := 4*(blockRows+1) + 4*nblocks + 8*nblocks*slots
	body, err := io.ReadAll(io.LimitReader(br, int64(need)))
	if err != nil {
		return nil, fmt.Errorf("formats: reading BCSR body: %w", err)
	}
	if len(body) < need {
		return nil, fmt.Errorf("formats: reading BCSR body: header declares %d bytes, input holds %d: %w",
			need, len(body), io.ErrUnexpectedEOF)
	}
	b := &BCSR[T]{
		Rows: rows, Cols: cols,
		BR: brz, BC: bcz,
		BlockRows: blockRows, BlockCols: blockCols,
		RowPtr: make([]int32, blockRows+1),
		ColIdx: make([]int32, nblocks),
		Vals:   make([]T, nblocks*slots),
	}
	for _, dst := range [][]int32{b.RowPtr, b.ColIdx} {
		for i := range dst {
			dst[i] = int32(binary.LittleEndian.Uint32(body))
			body = body[4:]
		}
	}
	for i := range b.Vals {
		b.Vals[i] = T(math.Float64frombits(binary.LittleEndian.Uint64(body)))
		body = body[8:]
	}
	if err := b.Validate(); err != nil {
		return nil, fmt.Errorf("formats: loaded BCSR is invalid: %w", err)
	}
	return b, nil
}

// WriteBCSRFile serialises b to a file.
func WriteBCSRFile[T matrix.Float](path string, b *BCSR[T]) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteBCSR(f, b); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadBCSRFile deserialises a BCSR matrix from a file.
func ReadBCSRFile[T matrix.Float](path string) (*BCSR[T], error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	b, err := ReadBCSR[T](f)
	if err != nil {
		return nil, fmt.Errorf("formats: %s: %w", path, err)
	}
	return b, nil
}
