package serve

import (
	"strconv"
	"sync"

	"repro/internal/kernels"
)

// Interned response header values. http.Header.Set allocates a one-element
// []string for every value it stores, and a number's value a string besides,
// so the multiply handler assigns these prebuilt slices by canonical key
// instead: the bytes on the wire are the same, and of a clean multiply's
// headers only Content-Length, which depends on the matrix and k, is built
// per request (DESIGN.md section 8, "Allocations of one multiply"). Each slice has length and capacity 1 and is never written:
// an append by anyone else copies it first.
var (
	octetStream  = []string{"application/octet-stream"}
	cacheHit     = []string{"hit"}
	cachePrepare = []string{"prepare"}
)

// maxInternedInt bounds the numbers intHeader holds: every k up to the
// default MaxK, and every batch width and batch k that reach it.
const maxInternedInt = 1024

var internedInts = func() []string {
	s := make([]string, maxInternedInt+1)
	for i := range s {
		s[i] = strconv.Itoa(i)
	}
	return s
}()

// intHeader is n's decimal header value, interned for 0 ≤ n ≤ 1024.
func intHeader(n int) []string {
	if n >= 0 && n <= maxInternedInt {
		return internedInts[n : n+1 : n+1]
	}
	return []string{strconv.Itoa(n)}
}

// internedNames holds a header value for every format and servable variant
// name in the kernels registry: the values X-Spmm-Format and X-Spmm-Variant
// take.
var internedNames = sync.OnceValue(func() map[string][]string {
	names := map[string][]string{}
	for _, v := range kernels.ServableVariants() {
		names[v.Name] = []string{v.Name}
		names[v.Format] = []string{v.Format}
	}
	return names
})

// nameHeader is name's header value: interned when the registry names it,
// built (one allocation) when it does not.
func nameHeader(name string) []string {
	if v, ok := internedNames()[name]; ok {
		return v
	}
	return []string{name}
}
