package matrix

import (
	"fmt"
	"math/rand"
)

// Dense is a row-major dense matrix with an explicit stride, so views and
// padded layouts share the same type. For a freshly allocated matrix
// Stride == Cols.
type Dense[T Float] struct {
	Rows, Cols int
	// Stride is the distance in elements between the starts of consecutive
	// rows in Data. Stride >= Cols.
	Stride int
	Data   []T
}

// NewDense allocates a zeroed rows×cols dense matrix with Stride == cols.
func NewDense[T Float](rows, cols int) *Dense[T] {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("matrix: NewDense(%d, %d): negative dimension", rows, cols))
	}
	return &Dense[T]{
		Rows:   rows,
		Cols:   cols,
		Stride: cols,
		Data:   make([]T, rows*cols),
	}
}

// NewDenseRand allocates a rows×cols matrix filled with deterministic
// pseudo-random values in [-1, 1) drawn from the given seed. The benchmark
// suite uses this to build the dense B operand, mirroring the thesis suite
// which "automatically generates a dense matrix" (§6.3.4).
func NewDenseRand[T Float](rows, cols int, seed int64) *Dense[T] {
	d := NewDense[T](rows, cols)
	rng := rand.New(rand.NewSource(seed))
	for i := range d.Data {
		d.Data[i] = T(rng.Float64()*2 - 1)
	}
	return d
}

// At returns the element at row i, column j.
func (d *Dense[T]) At(i, j int) T { return d.Data[i*d.Stride+j] }

// Set assigns the element at row i, column j.
func (d *Dense[T]) Set(i, j int, v T) { d.Data[i*d.Stride+j] = v }

// Row returns the slice backing row i (length Cols). Mutating the returned
// slice mutates the matrix.
func (d *Dense[T]) Row(i int) []T {
	off := i * d.Stride
	return d.Data[off : off+d.Cols]
}

// Zero sets every element to zero, leaving dimensions unchanged.
func (d *Dense[T]) Zero() {
	if d.Stride == d.Cols {
		clear(d.Data[:d.Rows*d.Cols])
		return
	}
	for i := 0; i < d.Rows; i++ {
		clear(d.Row(i))
	}
}

// Clone returns a deep copy with a compact stride.
func (d *Dense[T]) Clone() *Dense[T] {
	c := NewDense[T](d.Rows, d.Cols)
	for i := 0; i < d.Rows; i++ {
		copy(c.Row(i), d.Row(i))
	}
	return c
}

// Transpose returns a newly allocated transpose of d. It is written with
// blocked traversal so the transposition itself is cache-friendly; the
// transpose study (Study 8) charges this cost against the transposed
// kernels.
func (d *Dense[T]) Transpose() *Dense[T] {
	t := NewDense[T](d.Cols, d.Rows)
	const bs = 32
	for ii := 0; ii < d.Rows; ii += bs {
		iEnd := min(ii+bs, d.Rows)
		for jj := 0; jj < d.Cols; jj += bs {
			jEnd := min(jj+bs, d.Cols)
			for i := ii; i < iEnd; i++ {
				row := d.Data[i*d.Stride:]
				for j := jj; j < jEnd; j++ {
					t.Data[j*t.Stride+i] = row[j]
				}
			}
		}
	}
	return t
}

// EqualTol reports whether d and o have identical dimensions and all
// elements equal within tol (see EqualTol on scalars).
func (d *Dense[T]) EqualTol(o *Dense[T], tol float64) bool {
	if d.Rows != o.Rows || d.Cols != o.Cols {
		return false
	}
	for i := 0; i < d.Rows; i++ {
		dr, or := d.Row(i), o.Row(i)
		for j := range dr {
			if !EqualTol(dr[j], or[j], tol) {
				return false
			}
		}
	}
	return true
}

// MaxAbsDiff returns the maximum absolute elementwise difference between d
// and o. Dimensions must match.
func (d *Dense[T]) MaxAbsDiff(o *Dense[T]) (float64, error) {
	if d.Rows != o.Rows || d.Cols != o.Cols {
		return 0, dimError("MaxAbsDiff",
			fmt.Sprintf("%dx%d vs %dx%d", d.Rows, d.Cols, o.Rows, o.Cols))
	}
	var worst float64
	for i := 0; i < d.Rows; i++ {
		dr, or := d.Row(i), o.Row(i)
		for j := range dr {
			diff := float64(dr[j]) - float64(or[j])
			if diff < 0 {
				diff = -diff
			}
			if diff > worst {
				worst = diff
			}
		}
	}
	return worst, nil
}

// Bytes reports the memory footprint of the element storage in bytes
// (future-work §6.3.5 asks the suite to account for memory).
func (d *Dense[T]) Bytes() int {
	var z T
	return len(d.Data) * int(sizeOf(z))
}

// View returns a sub-matrix view sharing storage with d, spanning rows
// [r0, r0+rows) and columns [c0, c0+cols).
func (d *Dense[T]) View(r0, c0, rows, cols int) (*Dense[T], error) {
	if r0 < 0 || c0 < 0 || rows < 0 || cols < 0 || r0+rows > d.Rows || c0+cols > d.Cols {
		return nil, dimError("View",
			fmt.Sprintf("view [%d:%d, %d:%d] of %dx%d", r0, r0+rows, c0, c0+cols, d.Rows, d.Cols))
	}
	// A view with no rows may start past the last element (a column block of
	// a 0-row matrix); it holds nothing, so it starts at the end instead.
	return &Dense[T]{
		Rows:   rows,
		Cols:   cols,
		Stride: d.Stride,
		Data:   d.Data[min(r0*d.Stride+c0, len(d.Data)):],
	}, nil
}

func sizeOf[T Float](T) uintptr {
	var z T
	switch any(z).(type) {
	case float32:
		return 4
	default:
		return 8
	}
}
