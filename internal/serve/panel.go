package serve

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"unsafe"

	"repro/internal/matrix"
)

// The panel codec. A panel crosses the wire as rows*k little-endian float64s,
// row-major, no framing — which on a little-endian host is byte for byte what
// a compact matrix.Dense already holds. So the codec does not convert: it
// views. Only a panel that is not its own wire form (a strided view, the
// first k of more columns, a big-endian host) is encoded element by element,
// and then through a bounded scratch rather than a staged copy.
//
// This file is the one place in the repository that imports unsafe, and it
// only ever views float storage as bytes — never bytes as floats — so the
// view is always aligned and always inside one Go allocation.

var hostLittleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// floatBytes views f's storage as bytes: len(f)*8 of them, sharing memory.
func floatBytes(f []float64) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(f))), len(f)*8)
}

// wireChunk bounds the scratch WritePanel encodes through when a panel is not
// its own wire form: whole rows, about this many bytes per Write. Each Write
// is far above net/http's buffer sizes, so it goes to the socket directly.
const wireChunk = 64 << 10

// selfWire reports whether the first k columns of d are, as stored, their own
// wire form.
func selfWire(d *matrix.Dense[float64], k int) bool { return hostLittleEndian && d.Stride == k }

// encodeRows is the per-element encoder — the path for panels that are not
// their own wire form, and the reference the codec tests hold the bulk path
// to. It fills dst with the first k columns of d's rows from r0 on.
func encodeRows(dst []byte, d *matrix.Dense[float64], r0, k int) {
	for i := 0; i*k*8 < len(dst); i++ {
		row := d.Row(r0 + i)
		for j := 0; j < k; j++ {
			binary.LittleEndian.PutUint64(dst[(i*k+j)*8:], math.Float64bits(row[j]))
		}
	}
}

// panelWire returns the whole wire form of the first k columns of d. For a
// panel that is its own wire form that is a view of d's storage — valid only
// while d is neither written nor handed to someone who may write it;
// otherwise it is a fresh encoded copy.
func panelWire(d *matrix.Dense[float64], k int) ([]byte, error) {
	if k < 0 || k > d.Cols {
		return nil, fmt.Errorf("serve: panel k=%d outside [0, %d]", k, d.Cols)
	}
	if selfWire(d, k) {
		return floatBytes(d.Data[:d.Rows*k]), nil
	}
	out := make([]byte, d.Rows*k*8)
	encodeRows(out, d, 0, k)
	return out, nil
}

// WritePanel writes the first k columns of d as raw little-endian float64s,
// row-major: rows*k values, no framing. A panel that is its own wire form
// goes out in one Write; any other is encoded through one leased scratch of
// at most wireChunk bytes, a Write per scratch, never staged whole.
func WritePanel(w io.Writer, d *matrix.Dense[float64], k int) error {
	if k <= 0 || k > d.Cols || selfWire(d, k) {
		wire, err := panelWire(d, k)
		if err != nil {
			return err
		}
		_, err = w.Write(wire)
		return err
	}
	step := max(1, wireChunk/(k*8))
	scratch := LeaseBytes(min(step, d.Rows) * k * 8)
	defer scratch.Release()
	buf := scratch.Bytes()
	for r0 := 0; r0 < d.Rows; r0 += step {
		chunk := buf[:min(step, d.Rows-r0)*k*8]
		encodeRows(chunk, d, r0, k)
		if _, err := w.Write(chunk); err != nil {
			return err
		}
	}
	return nil
}

// ReadPanel reads a rows×k raw little-endian float64 panel written by
// WritePanel, straight into the storage of the Dense it returns. It fails if
// the stream holds fewer than rows*k values; extra trailing bytes are the
// caller's concern.
func ReadPanel(r io.Reader, rows, k int) (*matrix.Dense[float64], error) {
	if rows < 0 || k < 0 {
		return nil, fmt.Errorf("serve: negative panel shape %dx%d", rows, k)
	}
	d := matrix.NewDense[float64](rows, k)
	if err := fillPanel(r, d); err != nil {
		return nil, err
	}
	return d, nil
}

// fillPanel reads the compact panel d whole from r: ReadPanel's decoder, and
// with a leased d the server's.
func fillPanel(r io.Reader, d *matrix.Dense[float64]) error {
	raw := floatBytes(d.Data)
	if n, err := io.ReadFull(r, raw); err != nil {
		// Only a non-empty panel can read short, so Cols > 0 here.
		return fmt.Errorf("serve: short panel read at row %d: %w", n/(d.Cols*8), err)
	}
	if !hostLittleEndian {
		for i := range d.Data {
			d.Data[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[i*8:]))
		}
	}
	return nil
}
