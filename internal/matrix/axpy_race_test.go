//go:build race

package matrix

import "testing"

func init() { nanPayloads = false }

// TestRaceBuildIsScalar: the race detector cannot see stores made by
// assembly, so a -race build must never select the vector body — else the
// differential sweep under -race stops catching two workers on one C row.
func TestRaceBuildIsScalar(t *testing.T) {
	if VectorInner() {
		t.Fatal("vector inner selected in a -race build")
	}
	c, b := []float64{1, 2, 3, 4, 5, 6, 7, 8}, []float64{1, 1, 1, 1, 1, 1, 1, 1}
	setVector(t, avx512) // even forced on, this build has only the scalar loop behind it
	Axpy(c, b, 2, 8)
	if c[0] != 3 || c[7] != 10 {
		t.Fatalf("Axpy: c = %v", c)
	}
	AxpyRow(c, &Dense[float64]{Rows: 1, Cols: 8, Stride: 8, Data: b}, []int32{0}, []float64{2}, false)
	for _, v := range c { // the row entry writes c = 2·b, whatever c held
		if v != 2 {
			t.Fatalf("AxpyRow: c = %v", c)
		}
	}
}
