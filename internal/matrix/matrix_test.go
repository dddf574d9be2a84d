package matrix

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewDenseZeroed(t *testing.T) {
	d := NewDense[float64](3, 4)
	if d.Rows != 3 || d.Cols != 4 || d.Stride != 4 {
		t.Fatalf("dims: got %dx%d stride %d", d.Rows, d.Cols, d.Stride)
	}
	for i, v := range d.Data {
		if v != 0 {
			t.Fatalf("Data[%d] = %v, want 0", i, v)
		}
	}
}

func TestDenseAtSetRow(t *testing.T) {
	d := NewDense[float64](2, 3)
	d.Set(1, 2, 42)
	if got := d.At(1, 2); got != 42 {
		t.Fatalf("At(1,2) = %v, want 42", got)
	}
	row := d.Row(1)
	if len(row) != 3 || row[2] != 42 {
		t.Fatalf("Row(1) = %v", row)
	}
	row[0] = 7
	if d.At(1, 0) != 7 {
		t.Fatal("Row must alias storage")
	}
}

func TestDenseRandDeterministic(t *testing.T) {
	a := NewDenseRand[float64](5, 7, 42)
	b := NewDenseRand[float64](5, 7, 42)
	c := NewDenseRand[float64](5, 7, 43)
	if !a.EqualTol(b, 0) {
		t.Fatal("same seed must give identical matrices")
	}
	if a.EqualTol(c, 0) {
		t.Fatal("different seeds should differ")
	}
	for _, v := range a.Data {
		if v < -1 || v >= 1 {
			t.Fatalf("value %v outside [-1, 1)", v)
		}
	}
}

func TestDenseTransposeInvolution(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows := 1 + rng.Intn(70)
		cols := 1 + rng.Intn(70)
		d := NewDenseRand[float64](rows, cols, seed)
		tt := d.Transpose().Transpose()
		return d.EqualTol(tt, 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDenseTransposeElements(t *testing.T) {
	d := NewDenseRand[float64](33, 47, 1)
	tr := d.Transpose()
	if tr.Rows != 47 || tr.Cols != 33 {
		t.Fatalf("transpose dims %dx%d", tr.Rows, tr.Cols)
	}
	for i := 0; i < d.Rows; i++ {
		for j := 0; j < d.Cols; j++ {
			if d.At(i, j) != tr.At(j, i) {
				t.Fatalf("mismatch at (%d,%d)", i, j)
			}
		}
	}
}

func TestDenseView(t *testing.T) {
	d := NewDenseRand[float64](8, 9, 3)
	v, err := d.View(2, 3, 4, 5)
	if err != nil {
		t.Fatal(err)
	}
	if v.At(0, 0) != d.At(2, 3) || v.At(3, 4) != d.At(5, 7) {
		t.Fatal("view elements disagree with parent")
	}
	v.Set(1, 1, 99)
	if d.At(3, 4) != 99 {
		t.Fatal("view must alias parent storage")
	}
	if _, err := d.View(5, 5, 5, 5); err == nil {
		t.Fatal("out-of-range view must error")
	}
	// Empty views are legal wherever they start: below the last row, and as
	// a column block of a matrix with no rows at all.
	if v, err := d.View(8, 4, 0, 5); err != nil || v.Rows != 0 || v.Cols != 5 {
		t.Fatalf("empty view below the last row: %+v, %v", v, err)
	}
	if v, err := NewDense[float64](0, 6).View(0, 3, 0, 3); err != nil || v.Rows != 0 || v.Cols != 3 {
		t.Fatalf("column block of a 0-row matrix: %+v, %v", v, err)
	}
}

func TestDenseZeroRespectsViewBounds(t *testing.T) {
	d := NewDenseRand[float64](6, 6, 4)
	v, _ := d.View(1, 1, 3, 3)
	v.Zero()
	for i := 1; i < 4; i++ {
		for j := 1; j < 4; j++ {
			if d.At(i, j) != 0 {
				t.Fatalf("(%d,%d) not zeroed", i, j)
			}
		}
	}
	if d.At(0, 0) == 0 && d.At(5, 5) == 0 && d.At(1, 5) == 0 {
		t.Fatal("zeroing a view must not clobber surrounding elements (statistically impossible all are zero)")
	}
}

func TestMaxAbsDiff(t *testing.T) {
	a := NewDense[float64](2, 2)
	b := NewDense[float64](2, 2)
	b.Set(1, 1, -3)
	diff, err := a.MaxAbsDiff(b)
	if err != nil || diff != 3 {
		t.Fatalf("diff = %v, err = %v", diff, err)
	}
	c := NewDense[float64](2, 3)
	if _, err := a.MaxAbsDiff(c); err == nil {
		t.Fatal("dimension mismatch must error")
	}
}

func TestEqualTolScalar(t *testing.T) {
	cases := []struct {
		a, b, tol float64
		want      bool
	}{
		{1, 1, 0, true},
		{1, 1.05, 0.1, true},
		{1, 1.2, 0.1, false},
		{1e12, 1e12 * (1 + 1e-12), 1e-9, true},
		{0, 1e-12, 1e-9, true},
	}
	for _, c := range cases {
		if got := EqualTol(c.a, c.b, c.tol); got != c.want {
			t.Errorf("EqualTol(%v, %v, %v) = %v, want %v", c.a, c.b, c.tol, got, c.want)
		}
	}
}

func TestEqualTolNaN(t *testing.T) {
	nan := 0.0
	nan /= nan
	if EqualTol(nan, nan, 1) || EqualTol(nan, 0, 1) {
		t.Fatal("NaN must never compare equal")
	}
}

func TestCOOAppendValidate(t *testing.T) {
	m := NewCOO[float64](3, 3, 4)
	m.Append(0, 0, 1)
	m.Append(2, 1, 2)
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	m.Append(3, 0, 1) // out of range row
	if err := m.Validate(); err == nil {
		t.Fatal("out-of-range entry must fail validation")
	}
}

func TestCOOValidateInconsistentArrays(t *testing.T) {
	m := NewCOO[float64](2, 2, 2)
	m.Append(0, 0, 1)
	m.RowIdx = append(m.RowIdx, 1) // corrupt
	if err := m.Validate(); err == nil {
		t.Fatal("inconsistent arrays must fail validation")
	}
}

func TestCOOSortRowMajor(t *testing.T) {
	m := NewCOO[float64](3, 3, 4)
	m.Append(2, 0, 3)
	m.Append(0, 1, 1)
	m.Append(0, 0, 0.5)
	m.Append(1, 2, 2)
	if m.IsSortedRowMajor() {
		t.Fatal("should start unsorted")
	}
	m.SortRowMajor()
	if !m.IsSortedRowMajor() {
		t.Fatal("not sorted after SortRowMajor")
	}
	if m.RowIdx[0] != 0 || m.ColIdx[0] != 0 || m.Vals[0] != 0.5 {
		t.Fatalf("first triplet wrong: (%d,%d,%v)", m.RowIdx[0], m.ColIdx[0], m.Vals[0])
	}
}

func TestCOODedup(t *testing.T) {
	m := NewCOO[float64](2, 2, 4)
	m.Append(1, 1, 1)
	m.Append(0, 0, 2)
	m.Append(1, 1, 3)
	m.Append(0, 0, 4)
	merged := m.Dedup()
	if merged != 2 {
		t.Fatalf("merged = %d, want 2", merged)
	}
	if m.NNZ() != 2 {
		t.Fatalf("NNZ = %d, want 2", m.NNZ())
	}
	d := m.ToDense()
	if d.At(0, 0) != 6 || d.At(1, 1) != 4 {
		t.Fatalf("dedup sums wrong: %v", d.Data)
	}
}

func TestCOODedupIdempotent(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := NewCOO[float64](5, 5, 20)
		for i := 0; i < 20; i++ {
			m.Append(int32(rng.Intn(5)), int32(rng.Intn(5)), rng.Float64())
		}
		m.Dedup()
		before := m.NNZ()
		again := m.Dedup()
		return again == 0 && m.NNZ() == before
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCOODenseRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows := 1 + rng.Intn(20)
		cols := 1 + rng.Intn(20)
		d := NewDense[float64](rows, cols)
		for i := 0; i < rows*cols/3; i++ {
			d.Set(rng.Intn(rows), rng.Intn(cols), rng.Float64()+0.1)
		}
		back := FromDense(d).ToDense()
		return d.EqualTol(back, 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCOOTransposeInvolution(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := NewCOO[float64](7, 5, 12)
		for i := 0; i < 12; i++ {
			m.Append(int32(rng.Intn(7)), int32(rng.Intn(5)), rng.Float64()+0.1)
		}
		m.Dedup()
		tt := m.Transpose().Transpose()
		return m.ToDense().EqualTol(tt.ToDense(), 0) &&
			tt.Rows == m.Rows && tt.Cols == m.Cols
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCOORowCounts(t *testing.T) {
	m := NewCOO[float64](4, 4, 5)
	m.Append(0, 1, 1)
	m.Append(0, 2, 1)
	m.Append(3, 0, 1)
	counts := m.RowCounts()
	want := []int{2, 0, 0, 1}
	for i := range want {
		if counts[i] != want[i] {
			t.Fatalf("counts = %v, want %v", counts, want)
		}
	}
}

func TestCOOClone(t *testing.T) {
	m := NewCOO[float64](2, 2, 1)
	m.Append(0, 1, 5)
	c := m.Clone()
	c.Vals[0] = 9
	if m.Vals[0] != 5 {
		t.Fatal("clone must not alias source")
	}
}

func TestBytesAccounting(t *testing.T) {
	d64 := NewDense[float64](4, 4)
	d32 := NewDense[float32](4, 4)
	if d64.Bytes() != 128 || d32.Bytes() != 64 {
		t.Fatalf("dense bytes: %d / %d", d64.Bytes(), d32.Bytes())
	}
	m := NewCOO[float64](4, 4, 0)
	m.Append(0, 0, 1)
	m.Append(1, 1, 1)
	if m.Bytes() != 2*(4+4+8) {
		t.Fatalf("coo bytes = %d", m.Bytes())
	}
}

func TestFloat32Support(t *testing.T) {
	d := NewDenseRand[float32](4, 4, 9)
	tr := d.Transpose()
	if tr.At(1, 2) != d.At(2, 1) {
		t.Fatal("float32 transpose broken")
	}
	if DefaultTol[float32]() <= DefaultTol[float64]() {
		t.Fatal("float32 tolerance must be looser than float64")
	}
}
