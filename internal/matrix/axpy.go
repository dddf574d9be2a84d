package matrix

// vector selects the AVX2 body of Axpy. It is set once at init (amd64 with
// AVX2 and OS-saved YMM state, not a -race build) and never again outside
// tests.
var vector bool

// vectorMin is the shortest row the vector body takes: below it the assembly
// would run only its own scalar tail (BenchmarkAxpy, DESIGN.md section 5).
const vectorMin = 4

// VectorInner reports whether Axpy runs its AVX2 body.
func VectorInner() bool { return vector }

// Axpy computes c[j] += v * b[j] for j in [0, k): the inner loop of every
// SpMM kernel and of the overlay. Both bodies multiply, round, then add,
// lane by lane — never fused — so they agree bit for bit and so does
// everything built on them. The scalar loop serves float32, named element
// types, other architectures, short rows and -race builds.
func Axpy[T Float](c, b []T, v T, k int) {
	c = c[:k:k]
	b = b[:k:k]
	if vector && k >= vectorMin {
		if c64, ok := any(c).([]float64); ok {
			axpyAVX2(c64, any(b).([]float64), any(v).(float64))
			return
		}
	}
	axpyScalar(c, b, v)
}

// AxpyWhole is Axpy for k a positive multiple of 8: it enters the vector
// body that has no remainder loops and no length test — the trip count
// known in advance that Study 9 compares against the runtime one.
func AxpyWhole[T Float](c, b []T, v T, k int) {
	c = c[:k:k]
	b = b[:k:k]
	if vector {
		if c64, ok := any(c).([]float64); ok {
			axpyWholeAVX2(c64, any(b).([]float64), any(v).(float64))
			return
		}
	}
	axpyScalar(c, b, v)
}

// axpyScalar needs len(b) == len(c) pinned by its caller's full-slice
// expressions; inlined there, the loop carries no bounds check.
func axpyScalar[T Float](c, b []T, v T) {
	for j := range c {
		c[j] += v * b[j]
	}
}
