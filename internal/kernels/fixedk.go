package kernels

// The thesis' manual-optimisation study (Study 9) used C++ templates to
// "hard-code the value of k in the loop" so the compiler could unroll and
// vectorise. Here the formats' *Fixed range functions (InnerFixedK) enter
// matrix.AxpyWhole: the vector body with no remainder loops and no length
// test, which is what a trip count known in advance buys once the inner
// loop is vectorised either way.

// FixedKs lists the k values the fixed-k study sweeps; HasFixedK accepts
// the whole k % 8 == 0 family.
var FixedKs = []int{8, 16, 32, 64, 128}

// HasFixedK reports whether a specialised kernel exists for k: any
// positive multiple of 8.
func HasFixedK(k int) bool {
	return k > 0 && k%8 == 0
}
