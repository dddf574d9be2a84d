package matrix

import "testing"

// TestScanReuse: shared columns are counted against the row right before
// (none across an empty row), spans per row, and a descent of a row or of a
// column inside a row leaves the zero Reuse.
func TestScanReuse(t *testing.T) {
	m := NewCOO[float64](5, 9, 0)
	for _, e := range [][2]int32{{0, 0}, {0, 2}, {0, 5}, {1, 2}, {1, 5}, {1, 5}, {1, 7}, {3, 5}, {4, 1}, {4, 5}} {
		m.Append(e[0], e[1], 1)
	}
	want := Reuse{Rows: 5, Pairs: 10, Shared: 3, Span: 5 + 5 + 0 + 4, Sorted: true}
	if got := ScanReuse(m.Rows, m.RowIdx, m.ColIdx); got != want {
		t.Fatalf("ScanReuse = %+v, want %+v", got, want)
	}
	if got := m.Reuse(); got != want {
		t.Fatalf("COO.Reuse = %+v, want %+v", got, want)
	}
	if got := ScanReuse(3, []int32{0, 0, 1}, []int32{4, 2, 0}); got != (Reuse{}) {
		t.Errorf("columns descending in a row: %+v, want the zero Reuse", got)
	}
	if got := ScanReuse(3, []int32{1, 0}, []int32{0, 0}); got != (Reuse{}) {
		t.Errorf("rows descending: %+v, want the zero Reuse", got)
	}
	if got := ScanReuse(3, nil, nil); got != (Reuse{Rows: 3, Sorted: true}) {
		t.Errorf("no entries: %+v", got)
	}
}

// TestCOOReuseFollowsTheTriplets: the memo is rescanned after Append and
// after a sort that moved triplets, so a COO that stops being sorted stops
// reading as sorted, and one sorted again reads as sorted again.
func TestCOOReuseFollowsTheTriplets(t *testing.T) {
	m := NewCOO[float64](3, 4, 0)
	m.Append(0, 1, 1)
	m.Append(1, 1, 1)
	if u := m.Reuse(); !u.Sorted || u.Shared != 1 {
		t.Fatalf("sorted: %+v", u)
	}
	m.Append(0, 3, 1) // row 0 after row 1
	if m.Reuse().Sorted {
		t.Fatal("an appended descent still reads as sorted")
	}
	m.SortRowMajor()
	if u := m.Reuse(); !u.Sorted || u.Pairs != 3 || u.Shared != 1 || u.Span != 2 {
		t.Fatalf("after the sort: %+v", u)
	}
	m.ColIdx[0], m.ColIdx[1] = m.ColIdx[1], m.ColIdx[0] // row 0: 3, 1
	m.Vals[0], m.Vals[1] = m.Vals[1], m.Vals[0]
	m.SortRowMajor()
	if u := m.Reuse(); !u.Sorted || u.Span != 2 {
		t.Fatalf("sorted again after a direct write: %+v", u)
	}
}
