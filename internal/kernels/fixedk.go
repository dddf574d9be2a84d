package kernels

// The thesis' manual-optimisation study (Study 9) used C++ templates to
// "hard-code the value of k in the loop" so the compiler could unroll and
// vectorise. Here both variants end in matrix.AxpyRow, whose tile loops are
// unrolled and vectorised by hand whatever k is, so InnerFixedK is each
// format's panel loop entered once, untiled, and all a known k % 8 == 0
// still buys is that the row entry's 4-wide and scalar tiles never run
// (EXPERIMENTS.md D3).

// FixedKs lists the k values the fixed-k study sweeps; HasFixedK accepts
// the whole k % 8 == 0 family.
var FixedKs = []int{8, 16, 32, 64, 128}

// HasFixedK reports whether a specialised kernel exists for k: any
// positive multiple of 8.
func HasFixedK(k int) bool {
	return k > 0 && k%8 == 0
}
