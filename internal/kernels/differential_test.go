package kernels

import (
	"context"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/formats"
	"repro/internal/matrix"
	"repro/internal/parallel"
)

// The differential sweep: every valid point of the format × execution
// lattice (serial, parallel, balanced, cancellable, both ELL layouts, every
// format) and the ablation run against the dense GEMM reference on five
// structurally adversarial matrix classes, as a panel (k = 16), as a vector
// (k = 1: SpMV is the same kernels at one column, held to the same
// contract) and at two ragged widths (k = 5 and 181, sweepRaggedKs). Every
// variant keeps the serial per-element accumulation order, so every one
// must agree bit for bit. A go/parser
// completeness check closes the loop: an exported function over a sparse a
// that no enumerated variant reaches fails the test, so new entry points
// cannot dodge the sweep.

// sweepK is one 16-wide tile of the row entry's vector body, as k = 1 is
// one scalar column. Both sit below one 128-column tile; a row wider than
// that tile is the k = 181 of sweepRaggedKs here and the k = 328 row of
// shapes (kernels_test.go).
const sweepK = 16

// sweepKs are the column counts every point runs at.
var sweepKs = []int{1, sweepK}

// sweepRaggedKs are the ragged column counts every point also runs at, so
// every point meets the row entry's whole tile ladder on the adversarial
// classes too: k = 5 is the 4-wide tile and one scalar column
// alone, and k = 181 = 128 + 32 + 16 + 4 + 1 runs every tile in one row
// entry call.
var sweepRaggedKs = []int{5, 181}

const sweepThreads = 4

// sweepMatrices builds the five matrix classes of the sweep. All are small
// enough that the whole lattice runs in well under a second.
func sweepMatrices() map[string]*matrix.COO[float64] {
	random := matrix.NewCOO[float64](40, 31, 0)
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 260; i++ {
		random.Append(int32(rng.Intn(40)), int32(rng.Intn(31)), rng.NormFloat64())
	}
	random.Dedup()

	// Rows 0, 5, 10, ... stay empty, including the first and last row —
	// the zero-row-length edge every partitioner must step over.
	empty := matrix.NewCOO[float64](45, 23, 0)
	for i := 0; i < 200; i++ {
		r := int32(rng.Intn(45))
		if r%5 == 0 {
			continue
		}
		empty.Append(r, int32(rng.Intn(23)), rng.NormFloat64())
	}
	empty.Dedup()

	// Every nonzero in one interior row: the degenerate imbalance that
	// collapses the row-aligned COO partition to a single chunk.
	single := matrix.NewCOO[float64](50, 29, 0)
	for j := 0; j < 29; j += 2 {
		single.Append(17, int32(j), rng.NormFloat64())
	}
	single.Dedup()

	return map[string]*matrix.COO[float64]{
		"random":     random,
		"power-law":  powerLawCOO(120, 60, 7),
		"empty-row":  empty,
		"single-row": single,
		"all-zero":   matrix.NewCOO[float64](30, 17, 0),
	}
}

// sweepFixture is one matrix class at one k: the operands and the
// reference.
type sweepFixture struct {
	in  *VariantInput
	ref *matrix.Dense[float64]
}

func TestDifferentialSweep(t *testing.T) {
	pool := parallel.NewPool(sweepThreads)
	defer pool.Close()
	variants := Variants()
	spellings := retiredSpellings(t, variants)
	retired := retiredFamilies(t, variants)
	for class, coo := range sweepMatrices() {
		// Slices of 4 rows sorted in windows of 8, so even the 30-row
		// classes span several slices and sorting windows.
		sell, err := formats.SELLCSFromCOO(coo, 4, 8)
		if err != nil {
			t.Fatalf("%s: fixture: %v", class, err)
		}
		converted := map[string]formats.Sparse{"sellcs": sell} // shared by every k
		var fixtures []sweepFixture
		for _, k := range append(slices.Clone(sweepKs), sweepRaggedKs...) {
			in := NewVariantInput(coo, k, sweepThreads, 3, 21)
			in.Pool, in.Formats = pool, converted
			ref := matrix.NewDense[float64](coo.Rows, k)
			if err := GEMM(coo.ToDense(), in.B, ref); err != nil {
				t.Fatalf("%s: reference: %v", class, err)
			}
			fixtures = append(fixtures, sweepFixture{in, ref})
		}

		for _, v := range variants {
			t.Run(class+"/"+v.Name, func(t *testing.T) {
				eachInner(t, func(t *testing.T) {
					for _, fx := range fixtures {
						t.Run(fmt.Sprintf("k=%d", fx.in.K), func(t *testing.T) { sweepPoint(t, v, fx) })
					}
				})
			})
		}
		for _, r := range spellings {
			t.Run(class+"/"+r.name, func(t *testing.T) {
				eachInner(t, func(t *testing.T) {
					for _, fx := range fixtures {
						t.Run(fmt.Sprintf("k=%d", fx.in.K), func(t *testing.T) { sweepPoint(t, r.now, fx) })
					}
				})
			})
		}
		for _, r := range retired {
			t.Run(class+"/"+r.name, func(t *testing.T) {
				eachInner(t, func(t *testing.T) {
					fx := fixtures[1] // k = sweepK: the family served only k <= 128, never k = 1
					t.Run(fmt.Sprintf("k=%d", fx.in.K), func(t *testing.T) { sweepPoint(t, r.now, fx) })
				})
			})
		}
	}
}

// retiredPoint is a retired variant name and the point that now computes
// what it did.
type retiredPoint struct {
	name string
	now  Variant
}

// retiredSpellings lists the 32 names the enumeration dropped when the pool
// became the only fork/join: each pooled point's per-call goroutine spelling
// ("opts-static" for "opts-pool", "opts-balanced" for "opts-balanced-pool")
// and, off COO, its self-scheduled one ("opts-dynamic" for "opts-pool").
// Serving WALs still hold these names, so each must
// resolve to its pooled point, and the sweeps hold that point to its
// contract under the old name.
func retiredSpellings(t *testing.T, variants []Variant) []retiredPoint {
	t.Helper()
	var out []retiredPoint
	for _, v := range variants {
		rest, olds := strings.TrimPrefix(v.Name, v.Format+"/"), []string(nil)
		if r, ok := strings.CutPrefix(rest, "opts-balanced-pool"); ok {
			rest, olds = r, []string{"opts-balanced"}
		} else if r, ok := strings.CutPrefix(rest, "opts-pool"); ok {
			rest, olds = r, []string{"opts-static", "opts-dynamic"}
			if v.Format == rowCOO.format {
				olds = olds[:1]
			}
		}
		for _, old := range olds {
			name := v.Format + "/" + old + rest
			if got, ok := ParseVariant(name); !ok || got.Name != v.Name {
				t.Fatalf("retired spelling %q resolves to %q (%v), want %q", name, got.Name, ok, v.Name)
			}
			out = append(out, retiredPoint{name, v})
		}
	}
	if len(out) != 32 {
		t.Fatalf("%d retired spellings, want 32", len(out))
	}
	return out
}

// retiredFamilies is the table of the two deleted inner-loop families of
// COO, CSR, ELL and BCSR: the fixed-k loop ("-fixed") and the transposed-B
// loop ("-bt"), each spelled after every name ParseVariant resolves to a
// lattice point of those formats — the point's own name and each legacy
// spelling of it, 64 in all — with the family's suffix after the machinery
// and before "-colmajor". The fixed-k loop was the generic one entered with
// k <= 128, so at those k each "-fixed" point is its generic sibling,
// and the sweep holds that sibling to the dense reference under the old
// name. The transposed-B loop read Bᵀ and has no sibling to stand for it,
// so its names are only checked here. None of the 128 names may resolve:
// the families are gone, not aliased.
func retiredFamilies(t *testing.T, variants []Variant) []retiredPoint {
	t.Helper()
	var fixed []retiredPoint
	transB := 0
	for _, v := range variants {
		if !slices.Contains([]string{"coo", "csr", "ell", "bcsr"}, v.Format) || v.ablation != nil {
			continue
		}
		for _, name := range namesOf(v) {
			base, colMajor := strings.CutSuffix(name, "-colmajor")
			for _, family := range []string{"-fixed", "-bt"} {
				old := base + family
				if colMajor {
					old += "-colmajor"
				}
				if got, ok := ParseVariant(old); ok {
					t.Fatalf("retired name %q resolves to %q", old, got.Name)
				}
				if family == "-bt" {
					transB++
				} else {
					fixed = append(fixed, retiredPoint{old, v})
				}
			}
		}
	}
	if len(fixed) != 64 || transB != 64 {
		t.Fatalf("%d retired fixed-k and %d transposed-B names, want 64 and 64", len(fixed), transB)
	}
	return fixed
}

// namesOf lists every name ParseVariant resolves to the lattice point v: its
// own, then one per legacy spelling of its machinery.
func namesOf(v Variant) []string {
	names := []string{v.Name}
	rest := strings.TrimPrefix(v.Name, v.Format+"/")
	for _, l := range legacy {
		if r, ok := strings.CutPrefix(rest, l.now); ok && !(l.dynamic && v.Format == rowCOO.format) {
			names = append(names, v.Format+"/"+l.old+r)
		}
	}
	return names
}

// sweepPoint runs one variant on one fixture and checks it against the
// dense reference bit for bit.
func sweepPoint(t *testing.T, v Variant, fx sweepFixture) {
	ref := fx.ref
	out := matrix.NewDense[float64](ref.Rows, ref.Cols)
	for i := range out.Data {
		out.Data[i] = 1e301 // poison: the kernel must overwrite
	}
	if err := v.Run(fx.in, out); err != nil {
		t.Fatalf("run: %v", err)
	}
	for i := 0; i < ref.Rows; i++ {
		for j := 0; j < ref.Cols; j++ {
			got, want := out.At(i, j), ref.At(i, j)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("C[%d,%d] = %v (%#x), dense reference %v (%#x): bitwise contract broken",
					i, j, got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
	}
}

// TestStoredZeroTimesNonFinite is the one point of the sweep where a stored
// zero is observable: 0 × Inf and 0 × NaN are NaN. COO, CSR, ELL (both
// layouts) and SELL-C-σ multiply every stored entry, so they agree with
// csr-serial bit for bit, NaNs included; BCSR and BELL store dense blocks, in
// which a zero is fill, so they compute the product of the matrix without
// it (DESIGN.md section 5). k = 181 runs every tile of the row entry (128 +
// 32 + 16 + 4 + 1), each of which carries the block lanes' fill skip.
func TestStoredZeroTimesNonFinite(t *testing.T) { eachInner(t, storedZeroTimesNonFinite) }

func storedZeroTimesNonFinite(t *testing.T) {
	const rows, cols = 9, 40
	with, without := matrix.NewCOO[float64](rows, cols, 0), matrix.NewCOO[float64](rows, cols, 0)
	for i := int32(0); i < rows; i++ {
		for j := i % 3; j < cols; j += 1 + i%4 { // row 0 is full: ten 4-wide blocks
			v := float64(1+i) - float64(j)/8
			if (j == 5 || j == 17) && i != 4 { // row 4 meets Inf and NaN with real values
				v = 0
			} else {
				without.Append(i, j, v)
			}
			with.Append(i, j, v)
		}
	}
	for _, k := range append(sweepKs, 181) {
		b := matrix.NewDenseRand[float64](cols, k, 3)
		for j := 0; j < k; j++ {
			b.Set(5, j, math.Inf(1-2*(j%2)))
			b.Set(17, j, math.NaN())
		}
		run := func(m *matrix.COO[float64], format string, layout formats.ELLLayout) *matrix.Dense[float64] {
			a, err := formats.FromCOO(format, m.Clone(), formats.Params{Block: 4, Layout: layout})
			if err != nil {
				t.Fatal(err)
			}
			c := matrix.NewDense[float64](rows, k)
			if err := Multiply(a, b, c, k, Spec{}); err != nil {
				t.Fatalf("%s: %v", format, err)
			}
			return c
		}
		ref, fill := run(with, "csr", 0), run(without, "csr", 0)
		if !math.IsNaN(ref.At(0, 0)) || math.IsNaN(fill.At(0, 0)) || !math.IsNaN(fill.At(4, 0)) || math.IsNaN(ref.At(3, 0)) {
			t.Fatalf("k=%d: fixture does not observe the stored zero: with it C[0,0] = %v, C[3,0] = %v; as fill C[0,0] = %v, C[4,0] = %v",
				k, ref.At(0, 0), ref.At(3, 0), fill.At(0, 0), fill.At(4, 0))
		}
		for _, f := range []struct {
			format string
			layout formats.ELLLayout
			want   *matrix.Dense[float64]
		}{
			{"coo", 0, ref}, {"ell", formats.RowMajor, ref}, {"ell", formats.ColMajor, ref}, {"sellcs", 0, ref},
			{"bcsr", 0, fill}, {"bell", 0, fill},
		} {
			got := run(with, f.format, f.layout)
			for i := range got.Data {
				if math.Float64bits(got.Data[i]) != math.Float64bits(f.want.Data[i]) {
					t.Errorf("%s %v k=%d: C[%d] = %v (%#x), want %v (%#x)", f.format, f.layout, k, i,
						got.Data[i], math.Float64bits(got.Data[i]), f.want.Data[i], math.Float64bits(f.want.Data[i]))
					break
				}
			}
		}
	}
}

// notKernels are the two exported functions over an operand named a that are
// not sparse kernels of their own: the dense reference, and the vector view
// of Multiply (TestSpMVKernels holds it to Multiply's column 0 on every
// format).
var notKernels = map[string]bool{"GEMM": true, "MultiplyVec": true}

// kernelSignature reports whether fd is an exported kernel entry point: a
// package-level function taking an operand named a and returning one error,
// other than the two notKernels names.
func kernelSignature(fd *ast.FuncDecl) bool {
	if fd.Recv != nil || !fd.Name.IsExported() || fd.Type.Results == nil || len(fd.Type.Results.List) != 1 {
		return false
	}
	if id, ok := fd.Type.Results.List[0].Type.(*ast.Ident); !ok || id.Name != "error" {
		return false
	}
	for _, field := range fd.Type.Params.List {
		for _, name := range field.Names {
			if name.Name == "a" {
				return !notKernels[fd.Name.Name]
			}
		}
	}
	return false
}

// TestVariantRegistryComplete parses the package source and cross-checks
// the declared kernel entry points against the enumeration, in both
// directions: an exported function over an operand a that no variant
// reaches fails (adding an entry point without sweep coverage is a test
// failure), and a variant naming a function the package does not declare
// fails (catches renames and typos). Every lattice point runs through
// Multiply, so Multiply counts as reached as soon as one exists.
func TestVariantRegistryComplete(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	declared := map[string]bool{}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok && kernelSignature(fd) {
					declared[fd.Name.Name] = false // not yet reached
				}
			}
		}
	}
	if len(declared) == 0 {
		t.Fatal("parsed no kernel entry points — signature test or directory wrong")
	}
	if len(declared) > 8 {
		t.Errorf("%d exported kernel entry points, want at most 8 (six formats, Multiply, one ablation): %v",
			len(declared), declared)
	}

	reached := map[string]bool{}
	for _, v := range Variants() {
		reached[v.Func] = true
		if v.ablation == nil {
			reached["Multiply"] = true
		}
	}
	for name := range reached {
		if _, ok := declared[name]; !ok {
			t.Errorf("a variant names %s but the package declares no such kernel entry point", name)
		}
		declared[name] = true
	}
	for name, covered := range declared {
		if !covered {
			t.Errorf("exported kernel %s is reached by no variant — give it a lattice row (or list it as an ablation) so the differential sweep covers it", name)
		}
	}
}

// legacyVariantNames are the 38 names of the hand-written registry the
// lattice replaced that still name a kernel. Serving WALs (their
// promotion and tuner-profile records among them) and saved sweep output
// hold them, so every one must keep resolving. The
// registry's eight "-fixed" names are gone with the fixed-k family, its
// eight "-bt" names with the transposed-B family (retiredFamilies), and its
// CSC and replicated-COO names with those kernels (retiredVariantNames):
// none was servable, so no WAL held one.
var legacyVariantNames = []string{
	"coo/serial", "coo/serial-ctx", "coo/parallel", "coo/parallel-ctx",
	"coo/opts-static", "coo/opts-pool",
	"csr/serial", "csr/serial-ctx", "csr/parallel", "csr/parallel-ctx", "csr/parallel-dynamic",
	"csr/opts-static", "csr/opts-balanced", "csr/opts-pool", "csr/opts-balanced-pool",
	"ell/serial", "ell/serial-colmajor", "ell/parallel", "ell/parallel-colmajor",
	"ell/opts-static", "ell/opts-pool",
	"bcsr/serial", "bcsr/parallel", "bcsr/parallel-inner",
	"bcsr/opts-static", "bcsr/opts-balanced", "bcsr/opts-pool", "bcsr/opts-balanced-pool",
	"bell/serial", "bell/parallel", "bell/opts-static", "bell/opts-pool",
	"sellcs/serial", "sellcs/parallel",
	"sellcs/opts-static", "sellcs/opts-balanced", "sellcs/opts-pool", "sellcs/opts-balanced-pool",
}

// retiredVariantNames are the names of the deleted kernels that were not
// bitwise, or whose format is gone: CSC, serial and column-split, and COO
// split at arbitrary triplets, each into private copies of C (EXPERIMENTS.md,
// "COO partition and CSC on the host"). ParseVariant refuses every one.
var retiredVariantNames = []string{"csc/serial", "csc/serial-ctx", "csc/parallel", "coo/parallel-replicated"}

// servableVariantNames are the servable variants, in enumeration order.
var servableVariantNames = []string{
	"coo/opts-pool",
	"csr/opts-pool", "csr/opts-balanced-pool",
	"ell/opts-pool",
	"bcsr/opts-pool", "bcsr/opts-balanced-pool",
	"bell/opts-pool",
	"sellcs/opts-pool", "sellcs/opts-balanced-pool",
}

func TestVariantNamesGolden(t *testing.T) {
	if len(legacyVariantNames) != 38 {
		t.Fatalf("golden list has %d names, want 38", len(legacyVariantNames))
	}
	for _, name := range legacyVariantNames {
		v, ok := ParseVariant(name)
		if !ok {
			t.Errorf("legacy variant %q no longer resolves", name)
			continue
		}
		if format, _, _ := strings.Cut(name, "/"); v.Format != format {
			t.Errorf("%q resolved to format %q", name, v.Format)
		}
	}
	// The goroutine-per-call and dynamic spellings are aliases of the
	// pooled points that now run them.
	for alias, want := range map[string]string{
		"csr/parallel":             "csr/opts-pool",
		"csr/parallel-ctx":         "csr/opts-pool-ctx",
		"csr/parallel-dynamic":     "csr/opts-pool",
		"ell/parallel-colmajor":    "ell/opts-pool-colmajor",
		"coo/opts-static":          "coo/opts-pool",
		"csr/opts-balanced":        "csr/opts-balanced-pool",
		"bcsr/opts-balanced-ctx":   "bcsr/opts-balanced-pool-ctx",
		"sellcs/opts-dynamic":      "sellcs/opts-pool",
		"ell/opts-static-colmajor": "ell/opts-pool-colmajor",
		"bcsr/parallel-inner":      "bcsr/parallel-inner", // an ablation, not an alias
	} {
		if v, ok := ParseVariant(alias); !ok || v.Name != want {
			t.Errorf("ParseVariant(%q) = %q, %v; want %q", alias, v.Name, ok, want)
		}
	}
	for _, bad := range []string{"", "csr", "csr/", "dia/serial", "csc/opts-static", "bell/serial-bt", "coo/opts-dynamic", "csr/opts-dynamic-pool"} {
		if v, ok := ParseVariant(bad); ok {
			t.Errorf("ParseVariant(%q) resolved to %q", bad, v.Name)
		}
	}
	for _, name := range retiredVariantNames {
		t.Run("retired/"+name, func(t *testing.T) {
			if v, ok := ParseVariant(name); ok {
				t.Errorf("ParseVariant(%q) resolved to %q", name, v.Name)
			}
			if _, _, ok := PlanForVariant(name); ok {
				t.Errorf("PlanForVariant(%q) ok", name)
			}
			in := NewVariantInput(matrix.NewCOO[float64](2, 2, 0), 1, 1, 1, 1)
			if err := RunVariant(name, in, matrix.NewDense[float64](2, 1)); err == nil {
				t.Errorf("RunVariant(%q) ran", name)
			}
		})
	}

	var servable []string
	for _, v := range ServableVariants() {
		servable = append(servable, v.Name)
		format, sched, ok := PlanForVariant(v.Name)
		if !ok || ServingVariant(format, sched) != v.Name {
			t.Errorf("%s: plan (%s, %s, ok=%v) does not compose back", v.Name, format, sched, ok)
		}
	}
	if !slices.Equal(servable, servableVariantNames) {
		t.Errorf("ServableVariants() = %v\nwant %v", servable, servableVariantNames)
	}
	for _, name := range []string{"csr/serial", "csr/opts-static-ctx", "csr/opts-dynamic", "csr/opts-pool-bt", "ell/opts-pool-colmajor", "csc/parallel"} {
		if _, _, ok := PlanForVariant(name); ok {
			t.Errorf("PlanForVariant(%q) ok, want outside the servable subset", name)
		}
	}
	// Formats without a distinct balanced partition degrade to static.
	if got := ServingVariant("ell", ScheduleBalanced); got != "ell/opts-pool" {
		t.Errorf("ServingVariant(ell, balanced, pooled) = %q, want ell/opts-pool", got)
	}
}

// TestVariantNameRoundTrip: names are an injective spelling of the lattice
// coordinates — parsing an enumerated point's name gives the point back —
// and a Spec bound to real resources spells the same machinery.
func TestVariantNameRoundTrip(t *testing.T) {
	pool := parallel.NewPool(2)
	defer pool.Close()
	if n := len(Variants()); n != 35 {
		t.Errorf("%d variants enumerated, want 34 lattice points and 1 ablation", n)
	}
	seen := map[string]bool{}
	for _, v := range Variants() {
		if seen[v.Name] {
			t.Errorf("name %q enumerated twice", v.Name)
		}
		seen[v.Name] = true
		got, ok := ParseVariant(v.Name)
		if !ok {
			t.Errorf("enumerated variant %q does not parse", v.Name)
			continue
		}
		got.ablation, v.ablation = nil, nil
		if !reflect.DeepEqual(got, v) {
			t.Errorf("ParseVariant(%q) = %+v, want %+v", v.Name, got, v)
		}
		if v.Func == strings.ToUpper(v.Format) { // a lattice point
			s := Spec{Threads: 1, Schedule: v.Schedule}
			if v.Parallel {
				s.Threads, s.Pool = 2, pool
			}
			if v.Ctx {
				s.Ctx = context.Background()
			}
			want := strings.TrimSuffix(strings.TrimPrefix(v.Name, v.Format+"/"), "-colmajor")
			if s.Name() != want {
				t.Errorf("%s: Spec.Name() = %q, want %q", v.Name, s.Name(), want)
			}
		}
	}
}
