package formats

import (
	"bytes"
	"errors"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/matrix"
)

// randomCOO builds a random rows×cols COO with distinct entries.
func randomCOO(rng *rand.Rand, rows, cols, nnzTarget int) *matrix.COO[float64] {
	m := matrix.NewCOO[float64](rows, cols, nnzTarget)
	for i := 0; i < nnzTarget; i++ {
		m.Append(int32(rng.Intn(rows)), int32(rng.Intn(cols)), rng.NormFloat64()+3) // offset avoids exact zeros
	}
	m.Dedup()
	return m
}

func quickCOO(seed int64) *matrix.COO[float64] {
	rng := rand.New(rand.NewSource(seed))
	rows := 1 + rng.Intn(40)
	cols := 1 + rng.Intn(40)
	return randomCOO(rng, rows, cols, rng.Intn(rows*cols+1))
}

func sameDense(t *testing.T, a, b *matrix.COO[float64], label string) {
	t.Helper()
	if !a.ToDense().EqualTol(b.ToDense(), 1e-12) {
		t.Fatalf("%s: dense expansion differs", label)
	}
}

func TestCSRRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		m := quickCOO(seed)
		c := CSRFromCOO(m)
		if c.Validate() != nil {
			return false
		}
		return c.ToCOO().ToDense().EqualTol(m.ToDense(), 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCSRKnownSmall(t *testing.T) {
	m := matrix.NewCOO[float64](3, 3, 3)
	m.Append(0, 1, 2)
	m.Append(2, 0, 5)
	m.Append(2, 2, 7)
	c := CSRFromCOO(m)
	wantPtr := []int32{0, 1, 1, 3}
	for i, w := range wantPtr {
		if c.RowPtr[i] != w {
			t.Fatalf("RowPtr = %v, want %v", c.RowPtr, wantPtr)
		}
	}
	if c.RowNNZ(0) != 1 || c.RowNNZ(1) != 0 || c.RowNNZ(2) != 2 {
		t.Fatal("RowNNZ wrong")
	}
	if c.NNZ() != 3 || c.Stored() != 3 {
		t.Fatal("NNZ/Stored wrong")
	}
}

func TestCSRValidateCatchesCorruption(t *testing.T) {
	m := quickCOO(7)
	c := CSRFromCOO(m)
	good := c.RowPtr[len(c.RowPtr)-1]
	c.RowPtr[len(c.RowPtr)-1] = good + 1
	if c.Validate() == nil {
		t.Fatal("bad endpoint undetected")
	}
	c.RowPtr[len(c.RowPtr)-1] = good
	if len(c.ColIdx) > 0 {
		c.ColIdx[0] = int32(c.Cols)
		if c.Validate() == nil {
			t.Fatal("out-of-range column undetected")
		}
	}
}

// TestPaddedValidateCatchesCorruption: RowLen is the only statement of which
// slots are real, so a length that disagrees with the arrays is an error —
// per row for ELL (both layouts), per block row for BELL, per lane for
// SELL-C-σ. (One more than the truth is not a disagreement: it reads the
// first padding slot as a stored zero at a repeated column.)
func TestPaddedValidateCatchesCorruption(t *testing.T) {
	m := matrix.NewCOO[float64](8, 8, 0) // row i holds columns 0 .. i%4
	for i := int32(0); i < 8; i++ {
		for j := int32(0); j <= i%4; j++ {
			m.Append(i, j, float64(1+i+j))
		}
	}
	ell := ELLFromCOO(m, RowMajor)
	ellCM := ell.Relayout(ColMajor)
	ellCM.RowLen = slices.Clone(ellCM.RowLen) // Relayout shares it
	bell, err := BELLFromCOO(m, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	sell, err := SELLCSFromCOO(m, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []struct {
		name     string
		lens     *[]int32
		want     []int32
		validate func() error
	}{
		{"ell", &ell.RowLen, []int32{1, 2, 3, 4, 1, 2, 3, 4}, ell.Validate},
		{"ell-colmajor", &ellCM.RowLen, []int32{1, 2, 3, 4, 1, 2, 3, 4}, ellCM.Validate},
		{"bell", &bell.RowLen, []int32{1, 2, 1, 2}, bell.Validate},
		{"sellcs", &sell.RowLen, []int32{4, 3, 2, 1, 4, 3, 2, 1}, sell.Validate},
	} {
		lens := *f.lens
		if err := f.validate(); err != nil || !slices.Equal(lens, f.want) {
			t.Fatalf("%s: fresh conversion: RowLen %v, want %v; Validate %v", f.name, lens, f.want, err)
		}
		for i, bad := range map[int]int32{
			0: -1,          // negative
			1: 5,           // past the width
			2: lens[2] - 1, // a real slot left in the padding
			3: 0,           // a whole row left in the padding
		} {
			old := lens[i]
			lens[i] = bad
			if err := f.validate(); !errors.Is(err, ErrInvalid) {
				t.Errorf("%s: RowLen[%d] = %d (was %d) undetected: %v", f.name, i, bad, old, err)
			}
			lens[i] = old
		}
		*f.lens = lens[:len(lens)-1]
		if err := f.validate(); !errors.Is(err, ErrInvalid) {
			t.Errorf("%s: a missing length undetected: %v", f.name, err)
		}
		*f.lens = lens
		if err := f.validate(); err != nil {
			t.Errorf("%s: restored fixture invalid: %v", f.name, err)
		}
	}
	// No row as long as the width: the arrays are wider than any row needs.
	ell.Width++
	ell.ColIdx, ell.Vals = make([]int32, 8*ell.Width), make([]float64, 8*ell.Width)
	if err := ell.Validate(); !errors.Is(err, ErrInvalid) {
		t.Errorf("ell: width past the longest row undetected: %v", err)
	}

	// A nonzero in the padded fringe of a trailing block names a row or a
	// column outside the matrix: the kernels read a block lane's values with
	// no column limit, so BCSR and BELL reject it. With 3×3 blocks over 5×5,
	// the block holding (4, 4) covers rows and columns 3 .. 5.
	fr := matrix.NewCOO[float64](5, 5, 0)
	fr.Append(0, 0, 1)
	fr.Append(2, 3, 2)
	fr.Append(4, 4, 3)
	fb, err := BCSRFromCOO(fr, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	fe, err := BELLFromCOO(fr, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []struct {
		name     string
		blk      []float64
		validate func() error
	}{
		{"bcsr", fb.Block(fb.NumBlocks() - 1), fb.Validate},
		{"bell", fe.BlockAt(1, int(fe.RowLen[1])-1), fe.Validate},
	} {
		if err := f.validate(); err != nil || f.blk[4] != 3 {
			t.Fatalf("%s: fresh conversion: block %v, Validate %v", f.name, f.blk, err)
		}
		for at, where := range map[int]string{1*3 + 2: "column 5 of row 4", 2*3 + 1: "row 5"} {
			f.blk[at] = 7
			if err := f.validate(); !errors.Is(err, ErrInvalid) {
				t.Errorf("%s: a nonzero at %s undetected: %v", f.name, where, err)
			}
			f.blk[at] = 0
		}
		if err := f.validate(); err != nil {
			t.Errorf("%s: restored fixture invalid: %v", f.name, err)
		}
	}
}

// TestStoredZeroSurvivesRoundTrip: an explicit zero is an entry. ELL and
// SELL-C-σ tell it from padding by RowLen and hand it back; BCSR and BELL
// store dense blocks, where a zero is fill, and drop it.
func TestStoredZeroSurvivesRoundTrip(t *testing.T) {
	m := matrix.NewCOO[float64](3, 4, 4)
	m.Append(0, 0, 1)
	m.Append(0, 2, 0) // stored zero, mid-row
	m.Append(0, 3, 2)
	m.Append(2, 1, 0) // a row that is nothing but a stored zero
	sell, err := SELLCSFromCOO(m, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	bell, err := BELLFromCOO(m, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	for name, f := range map[string]struct {
		a interface {
			ToCOO() *matrix.COO[float64]
			NNZ() int
		}
		want int
	}{
		"ell":          {ELLFromCOO(m, RowMajor), 4},
		"ell-colmajor": {ELLFromCOO(m, ColMajor), 4},
		"sellcs":       {sell, 4},
		"bell":         {bell, 2},
	} {
		back := f.a.ToCOO()
		if f.a.NNZ() != f.want || back.NNZ() != f.want {
			t.Errorf("%s: NNZ %d, round trip holds %d entries, want %d", name, f.a.NNZ(), back.NNZ(), f.want)
		}
		sameDense(t, m, back, name)
	}
}

func TestCSCRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		m := quickCOO(seed)
		c := CSCFromCOO(m)
		return c.ToCOO().ToDense().EqualTol(m.ToDense(), 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestELLRoundTripBothLayouts(t *testing.T) {
	for _, layout := range []ELLLayout{RowMajor, ColMajor} {
		f := func(seed int64) bool {
			m := quickCOO(seed)
			e := ELLFromCOO(m, layout)
			if e.Validate() != nil {
				return false
			}
			return e.ToCOO().ToDense().EqualTol(m.ToDense(), 0)
		}
		if err := quick.Check(f, nil); err != nil {
			t.Fatalf("layout %v: %v", layout, err)
		}
	}
}

func TestELLWidthIsMaxRowDegree(t *testing.T) {
	m := matrix.NewCOO[float64](4, 6, 5)
	m.Append(1, 0, 1)
	m.Append(1, 2, 1)
	m.Append(1, 5, 1)
	m.Append(3, 3, 1)
	e := ELLFromCOO(m, RowMajor)
	if e.Width != 3 {
		t.Fatalf("Width = %d, want 3", e.Width)
	}
	if e.Stored() != 12 {
		t.Fatalf("Stored = %d, want 12", e.Stored())
	}
}

func TestELLPaddingLocality(t *testing.T) {
	// Padding must repeat the row's last real column (spatial locality).
	m := matrix.NewCOO[float64](2, 8, 3)
	m.Append(0, 3, 1)
	m.Append(1, 1, 1)
	m.Append(1, 6, 1)
	e := ELLFromCOO(m, RowMajor)
	col, v := e.At(0, 1)
	if v != 0 || col != 3 {
		t.Fatalf("padding slot = (%d, %v), want (3, 0)", col, v)
	}
}

func TestELLRelayoutPreservesContent(t *testing.T) {
	m := quickCOO(99)
	e := ELLFromCOO(m, RowMajor)
	cm := e.Relayout(ColMajor)
	if cm.Layout != ColMajor {
		t.Fatal("layout flag not updated")
	}
	for i := 0; i < e.Rows; i++ {
		for s := 0; s < e.Width; s++ {
			c1, v1 := e.At(i, s)
			c2, v2 := cm.At(i, s)
			if c1 != c2 || v1 != v2 {
				t.Fatalf("slot (%d,%d) differs after relayout", i, s)
			}
		}
	}
	if e.Relayout(RowMajor) != e {
		t.Fatal("same-layout relayout should return the receiver")
	}
}

func TestBCSRRoundTripAllBlockSizes(t *testing.T) {
	for _, bs := range [][2]int{{1, 1}, {2, 2}, {4, 4}, {3, 5}, {16, 16}} {
		f := func(seed int64) bool {
			m := quickCOO(seed)
			b, err := BCSRFromCOO(m, bs[0], bs[1])
			if err != nil || b.Validate() != nil {
				return false
			}
			return b.ToCOO().ToDense().EqualTol(m.ToDense(), 0)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
			t.Fatalf("block %v: %v", bs, err)
		}
	}
}

func TestBCSRMapAndSortedBuildersAgree(t *testing.T) {
	f := func(seed int64) bool {
		m := quickCOO(seed)
		fast, err1 := BCSRFromCOO(m, 4, 4)
		slow, err2 := BCSRFromCOOMap(m, 4, 4)
		if err1 != nil || err2 != nil {
			return false
		}
		if len(fast.ColIdx) != len(slow.ColIdx) || len(fast.Vals) != len(slow.Vals) {
			return false
		}
		for i := range fast.RowPtr {
			if fast.RowPtr[i] != slow.RowPtr[i] {
				return false
			}
		}
		for i := range fast.ColIdx {
			if fast.ColIdx[i] != slow.ColIdx[i] {
				return false
			}
		}
		for i := range fast.Vals {
			if fast.Vals[i] != slow.Vals[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBCSRRejectsBadBlockSize(t *testing.T) {
	m := quickCOO(1)
	for _, bs := range [][2]int{{0, 4}, {4, 0}, {-1, 2}} {
		if _, err := BCSRFromCOO(m, bs[0], bs[1]); err == nil {
			t.Fatalf("block %v accepted", bs)
		}
		if _, err := BCSRFromCOOMap(m, bs[0], bs[1]); err == nil {
			t.Fatalf("map builder: block %v accepted", bs)
		}
	}
}

func TestBCSRFillRatio(t *testing.T) {
	// A dense 4x4 corner in an 8x8 matrix: one full block, ratio 1.
	m := matrix.NewCOO[float64](8, 8, 16)
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			m.Append(int32(i), int32(j), 1)
		}
	}
	b, err := BCSRFromCOO(m, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	if b.NumBlocks() != 1 || b.FillRatio() != 1 {
		t.Fatalf("blocks=%d fill=%v", b.NumBlocks(), b.FillRatio())
	}
	// A single entry in a 4x4 block: ratio 1/16.
	m2 := matrix.NewCOO[float64](8, 8, 1)
	m2.Append(0, 0, 1)
	b2, _ := BCSRFromCOO(m2, 4, 4)
	if b2.FillRatio() != 1.0/16 {
		t.Fatalf("fill=%v, want 1/16", b2.FillRatio())
	}
}

func TestBCSRUnevenDimensions(t *testing.T) {
	// 5x7 with 4x4 blocks exercises the padded fringe.
	rng := rand.New(rand.NewSource(5))
	m := randomCOO(rng, 5, 7, 20)
	b, err := BCSRFromCOO(m, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	if b.BlockRows != 2 || b.BlockCols != 2 {
		t.Fatalf("grid %dx%d", b.BlockRows, b.BlockCols)
	}
	sameDense(t, m, b.ToCOO(), "uneven bcsr")
}

func TestBELLRoundTrip(t *testing.T) {
	for _, bs := range [][2]int{{2, 2}, {4, 4}, {3, 2}} {
		f := func(seed int64) bool {
			m := quickCOO(seed)
			e, err := BELLFromCOO(m, bs[0], bs[1])
			if err != nil || e.Validate() != nil {
				return false
			}
			return e.ToCOO().ToDense().EqualTol(m.ToDense(), 0)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
			t.Fatalf("block %v: %v", bs, err)
		}
	}
}

func TestBELLWidthUniform(t *testing.T) {
	m := quickCOO(3)
	e, err := BELLFromCOO(m, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(e.ColIdx) != e.BlockRows*e.Width {
		t.Fatal("every block row must have exactly Width slots")
	}
	b, _ := BCSRFromCOO(m, 2, 2)
	for i := 0; i < b.BlockRows; i++ {
		if w := int(b.RowPtr[i+1] - b.RowPtr[i]); w > e.Width {
			t.Fatalf("block row %d has %d blocks > BELL width %d", i, w, e.Width)
		}
	}
}

func TestSELLCSRoundTrip(t *testing.T) {
	for _, cfg := range [][2]int{{1, 1}, {4, 4}, {4, 16}, {8, 8}, {32, 64}} {
		f := func(seed int64) bool {
			m := quickCOO(seed)
			s, err := SELLCSFromCOO(m, cfg[0], cfg[1])
			if err != nil || s.Validate() != nil {
				return false
			}
			return s.ToCOO().ToDense().EqualTol(m.ToDense(), 0)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
			t.Fatalf("C=%d sigma=%d: %v", cfg[0], cfg[1], err)
		}
	}
}

func TestSELLCSRejectsBadParams(t *testing.T) {
	m := quickCOO(2)
	if _, err := SELLCSFromCOO(m, 0, 0); err == nil {
		t.Fatal("C=0 accepted")
	}
	if _, err := SELLCSFromCOO(m, 4, 6); err == nil {
		t.Fatal("sigma not multiple of C accepted")
	}
	if _, err := SELLCSFromCOO(m, 4, 2); err == nil {
		t.Fatal("sigma < C accepted")
	}
}

func TestSELLCSPadsLessThanELL(t *testing.T) {
	// One long row: ELL pads everything; SELL with small C pads one slice.
	m := matrix.NewCOO[float64](64, 64, 0)
	for j := 0; j < 64; j++ {
		m.Append(0, int32(j), 1)
	}
	for i := 1; i < 64; i++ {
		m.Append(int32(i), int32(i), 1)
	}
	ell := ELLFromCOO(m, RowMajor)
	sell, err := SELLCSFromCOO(m, 4, 64)
	if err != nil {
		t.Fatal(err)
	}
	if sell.Stored() >= ell.Stored() {
		t.Fatalf("SELL stored %d should beat ELL stored %d on a skewed matrix",
			sell.Stored(), ell.Stored())
	}
}

// TestFromCOO pins the single conversion site: every format name yields its
// concrete type with the bookkeeping methods the reports rely on, "coo" hands
// the sorted input back, and an unknown name or a bad block is an error.
func TestFromCOO(t *testing.T) {
	m := quickCOO(11)
	type described interface {
		Sparse
		FormatName() string
		Dims() (rows, cols int)
		NNZ() int
		Stored() int
	}
	names := map[string]bool{}
	for _, name := range []string{"csr", "csc", "ell", "bcsr", "bell", "sellcs"} {
		sp, err := FromCOO(name, m, Params{Block: 4, Layout: ColMajor})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		s, ok := sp.(described)
		if !ok || s.FormatName() != name {
			t.Fatalf("FromCOO(%q) returned %T", name, sp)
		}
		if e, ok := sp.(*ELL[float64]); ok && e.Layout != ColMajor {
			t.Fatalf("ell: layout %v, want the requested ColMajor", e.Layout)
		}
		if sl, ok := sp.(*SELLCS[float64]); ok && (sl.C != SELLC || sl.Sigma != SELLSigma) {
			t.Fatalf("sellcs: C=%d σ=%d, want %d/%d", sl.C, sl.Sigma, SELLC, SELLSigma)
		}
		if s.FormatName() == "" || names[s.FormatName()] {
			t.Fatalf("duplicate or empty format name %q", s.FormatName())
		}
		names[s.FormatName()] = true
		r, c := s.Dims()
		if r != m.Rows || c != m.Cols {
			t.Fatalf("%s: dims %dx%d", s.FormatName(), r, c)
		}
		if s.Stored() < s.NNZ() {
			t.Fatalf("%s: Stored %d < NNZ %d", s.FormatName(), s.Stored(), s.NNZ())
		}
		if s.Bytes() <= 0 && s.NNZ() > 0 {
			t.Fatalf("%s: Bytes %d", s.FormatName(), s.Bytes())
		}
	}

	unsorted := matrix.NewCOO[float64](3, 3, 2)
	unsorted.Append(2, 0, 1)
	unsorted.Append(0, 1, 2)
	if sp, err := FromCOO("coo", unsorted, Params{}); err != nil || sp != Sparse(unsorted) || !unsorted.IsSortedRowMajor() {
		t.Fatalf("coo: got %v, %v; want the input itself, sorted", sp, err)
	}
	if _, err := FromCOO("dia", m, Params{}); err == nil {
		t.Fatal("unknown format accepted")
	}
	if _, err := FromCOO("bcsr", m, Params{}); !errors.Is(err, ErrInvalid) {
		t.Fatalf("bcsr with block 0: %v, want ErrInvalid", err)
	}
}

func TestBCSRBinaryRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		m := quickCOO(seed)
		b, err := BCSRFromCOO(m, 4, 4)
		if err != nil {
			return false
		}
		var buf bytes.Buffer
		if err := WriteBCSR(&buf, b); err != nil {
			return false
		}
		back, err := ReadBCSR[float64](&buf)
		if err != nil {
			return false
		}
		return back.ToCOO().ToDense().EqualTol(m.ToDense(), 0) &&
			back.BR == b.BR && back.BC == b.BC
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestBCSRBinaryRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("BCSR"),
		[]byte("NOTBCSR1 some garbage"),
		append([]byte(bcsrMagic), bytes.Repeat([]byte{0xff}, 56)...), // nonsense header
	}
	for i, in := range cases {
		if _, err := ReadBCSR[float64](bytes.NewReader(in)); err == nil {
			t.Errorf("case %d: garbage accepted", i)
		}
	}
}

func TestBCSRBinaryTruncated(t *testing.T) {
	m := quickCOO(8)
	b, _ := BCSRFromCOO(m, 2, 2)
	var buf bytes.Buffer
	if err := WriteBCSR(&buf, b); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	if len(full) < 20 {
		t.Skip("matrix too small to truncate meaningfully")
	}
	for _, cut := range []int{10, len(full) / 2, len(full) - 1} {
		if _, err := ReadBCSR[float64](bytes.NewReader(full[:cut])); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
}

func TestFloat32Formats(t *testing.T) {
	m := matrix.NewCOO[float32](4, 4, 2)
	m.Append(0, 0, 1.5)
	m.Append(3, 3, -2.5)
	c := CSRFromCOO(m)
	if c.Bytes() >= CSRFromCOO(convert64(m)).Bytes() {
		t.Fatal("float32 CSR must be smaller than float64")
	}
	// The row lengths are 4 bytes a row whatever the value type.
	e, e64 := ELLFromCOO(m, RowMajor), ELLFromCOO(convert64(m), RowMajor)
	if err := e.Validate(); err != nil || !slices.Equal(e.RowLen, []int32{1, 0, 0, 1}) {
		t.Fatalf("float32 ELL: RowLen %v, Validate %v", e.RowLen, err)
	}
	if want := 4*4 + 4*4 + 4*4; e.Bytes() != want || e64.Bytes()-e.Bytes() != 4*len(e.Vals) {
		t.Fatalf("float32 ELL is %d bytes (float64 %d), want %d and 4 more per slot", e.Bytes(), e64.Bytes(), want)
	}
	bell, err := BELLFromCOO(m, 2, 2)
	if err != nil || bell.Validate() != nil || !slices.Equal(bell.RowLen, []int32{1, 1}) {
		t.Fatalf("float32 BELL: %v, RowLen %v", err, bell.RowLen)
	}
	sell, err := SELLCSFromCOO(m, 2, 2)
	if err != nil || sell.Validate() != nil || sell.NNZ() != 2 || len(sell.RowLen) != 4 {
		t.Fatalf("float32 SELL-C-σ: %v, RowLen %v", err, sell.RowLen)
	}
	if got := sell.ToCOO(); got.NNZ() != 2 || got.Vals[0] != 1.5 || got.Vals[1] != -2.5 {
		t.Fatalf("float32 SELL-C-σ round trip: %v", got.Vals)
	}
}

func convert64(m *matrix.COO[float32]) *matrix.COO[float64] {
	out := matrix.NewCOO[float64](m.Rows, m.Cols, m.NNZ())
	for i := range m.Vals {
		out.Append(m.RowIdx[i], m.ColIdx[i], float64(m.Vals[i]))
	}
	return out
}
