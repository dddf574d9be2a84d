package kernels

import (
	"context"
	"fmt"
	"strings"
	"sync"

	"repro/internal/formats"
	"repro/internal/matrix"
	"repro/internal/parallel"
)

// This file is the naming half of the lattice: Variants enumerates every
// valid (format, Spec) point from the lattice rows — plus the ablation that
// is a different algorithm, not a point. The differential sweep runs the
// whole enumeration against the dense reference, bit for bit; the serving
// layer and the tuner address points by name, so a name is a stable,
// parseable spelling of the coordinates and every arm the tuner can promote
// is a code path the sweep already verified.

// Variant is one named way to run SpMM: a point of the format × execution
// lattice, or the ablation outside it.
type Variant struct {
	// Name is "<format>/<machinery>": the Spec's Name, plus "-colmajor"
	// for ELL points on the column-major layout.
	Name string
	// Format is the sparse format the variant consumes.
	Format string
	// Func is the exported kernel function the variant reaches (through
	// Multiply, for lattice points). The completeness test cross-checks
	// this set against the package's declarations, in both directions.
	Func string

	// The lattice coordinates, with the Spec's context reduced to
	// present/absent; Run binds them from the VariantInput.
	Parallel bool // Spec.Threads > 1
	Schedule Schedule
	Ctx      bool              // Spec.Ctx != nil
	Layout   formats.ELLLayout // ELL only

	ablation func(a formats.Sparse, in *VariantInput, out *matrix.Dense[float64]) error
}

// machinery spells v's execution coordinates as the second half of a
// variant name. The parallel spellings keep the names the serving WAL
// persists: "opts-pool" (static) and "opts-balanced-pool".
func (v Variant) machinery() string {
	name := "serial"
	switch {
	case v.Parallel && v.Schedule == ScheduleStatic:
		name = "opts-pool"
	case v.Parallel:
		name = "opts-" + v.Schedule.String() + "-pool"
	}
	if v.Ctx {
		name += "-ctx"
	}
	return name
}

// point completes the lattice variant at the coordinates v holds.
func (r *row) point(v Variant) Variant {
	v.Format, v.Func = r.format, strings.ToUpper(r.format)
	v.Name = r.format + "/" + v.machinery()
	if v.Layout == formats.ColMajor {
		v.Name += "-colmajor"
	}
	return v
}

// points enumerates r's row of the lattice: the serial points, then the
// parallel ones static-before-balanced — the order ServableVariants (and so
// the tuner's round-robin) has always had.
func (r *row) points() []Variant {
	layouts := []formats.ELLLayout{formats.RowMajor}
	if r.colMajor {
		layouts = []formats.ELLLayout{formats.RowMajor, formats.ColMajor}
	}
	type machine struct {
		parallel bool
		sched    Schedule
	}
	machines := []machine{{}, {true, ScheduleStatic}}
	if r.balanced {
		machines = append(machines, machine{true, ScheduleBalanced})
	}
	var out []Variant
	for _, m := range machines {
		for _, layout := range layouts {
			for _, ctx := range []bool{false, true} {
				out = append(out, r.point(Variant{Parallel: m.parallel, Schedule: m.sched,
					Ctx: ctx, Layout: layout}))
			}
		}
	}
	return out
}

// ablations are the kernels outside the lattice: different algorithms the
// paper discusses, not execution choices.
var ablations = []Variant{
	// The Study 9 regression: it splits block rows, never an output
	// element's terms, so it is bitwise too.
	{Name: "bcsr/parallel-inner", Format: "bcsr", Func: "BCSRParallelInner",
		ablation: func(a formats.Sparse, in *VariantInput, out *matrix.Dense[float64]) error {
			return BCSRParallelInner(a.(*formats.BCSR[float64]), in.B, out, in.K, in.Threads)
		}},
}

// variantIndex is the enumeration and its by-name inverse.
type variantIndex struct {
	all    []Variant
	byName map[string]Variant
}

var index = sync.OnceValue(func() variantIndex {
	ix := variantIndex{byName: map[string]Variant{}}
	for _, r := range lattice {
		ix.all = append(ix.all, r.points()...)
	}
	ix.all = append(ix.all, ablations...)
	for _, v := range ix.all {
		if _, dup := ix.byName[v.Name]; dup {
			panic("kernels: variant name " + v.Name + " is not injective")
		}
		ix.byName[v.Name] = v
	}
	return ix
})

// Variants returns every valid lattice point followed by the ablation.
// The slice is a copy, so tests may not corrupt shared state.
func Variants() []Variant { return append([]Variant(nil), index().all...) }

// legacy maps the machinery prefix of each retired spelling to the prefix
// of the point that now runs it, longest first. Parallel points once also
// ran on fresh goroutines per call ("opts-static", "opts-balanced", and
// before the lattice "parallel") or self-scheduled chunks ("opts-dynamic",
// "parallel-dynamic"); a pool's participants already claim a region's
// pieces as they go, so each now names its schedule's pooled point.
var legacy = []struct {
	old, now string
	dynamic  bool
}{
	{"parallel-dynamic", "opts-pool", true},
	{"opts-dynamic", "opts-pool", true},
	{"parallel", "opts-pool", false},
	{"opts-static", "opts-pool", false},
	{"opts-balanced", "opts-balanced-pool", false},
}

// ParseVariant is the inverse of the enumeration's naming: it resolves a
// variant name to its coordinates. The retired spellings in legacy keep
// resolving, to the point that now runs them; the Variant carries the
// canonical Name.
func ParseVariant(name string) (Variant, bool) {
	ix := index()
	if v, ok := ix.byName[name]; ok {
		return v, true
	}
	format, m, _ := strings.Cut(name, "/")
	for _, l := range legacy {
		rest, ok := strings.CutPrefix(m, l.old)
		if !ok {
			continue
		}
		// COO's chunks must fall on row boundaries, so it never had a
		// dynamic point for the spelling to name.
		if l.dynamic && format == rowCOO.format {
			return Variant{}, false
		}
		v, ok := ix.byName[format+"/"+l.now+rest]
		return v, ok
	}
	return Variant{}, false
}

// servable reports whether a server may dispatch a live multiply (or a
// shadow trial) on v: a parallel lattice point on the row-major layout with
// no context — bitwise (so a challenger's output
// can be verified against the served result exactly), valid for any k, and
// scheduled by its name alone.
func (v Variant) servable() bool {
	return v.Parallel && !v.Ctx && v.Layout == formats.RowMajor
}

// ServableVariants returns the enumeration's servable subset, in order.
func ServableVariants() []Variant {
	var out []Variant
	for _, v := range index().all {
		if v.servable() {
			out = append(out, v)
		}
	}
	return out
}

// PlanForVariant decodes a servable variant name into the serving plan it
// executes: the sparse format and the work-partition schedule. ok is false
// for names outside the servable subset, which a retired dynamic spelling
// stays in: no plan ever named one.
func PlanForVariant(name string) (format string, sched Schedule, ok bool) {
	v, found := ParseVariant(name)
	if !found || !v.servable() || strings.Contains(name, "dynamic") {
		return "", ScheduleStatic, false
	}
	return v.Format, v.Schedule, true
}

// ServingVariant composes the variant name for a serving plan. Formats
// whose balanced partition is identical to static have no balanced points;
// dropping the qualifier changes nothing about the dispatch for them.
func ServingVariant(format string, sched Schedule) string {
	for _, r := range lattice {
		if r.format == format && !r.balanced {
			sched = ScheduleStatic
		}
	}
	return format + "/" + Variant{Parallel: true, Schedule: sched}.machinery()
}

// VariantInput is one sparse matrix plus the dense operands and execution
// resources a Variant runs with. Formats are converted on first use and
// cached, so one fixture drives every variant and a tuner pays for a format
// only once an arm needs it.
type VariantInput struct {
	COO *matrix.COO[float64]
	// Block is the BCSR/BELL block edge Prepare converts with.
	Block int

	B *matrix.Dense[float64] // n×k dense operand

	K       int
	Threads int
	// Pool is the worker pool the parallel points run on; nil means
	// parallel.Default(), the process pool.
	Pool *parallel.Pool

	// Formats caches Prepare's conversions by format name ("ell-colmajor"
	// for the column-major ELL). A caller may pre-populate an entry to run
	// the variants on a conversion of its own.
	Formats map[string]formats.Sparse
}

// NewVariantInput materialises the dense operands for coo. block is the
// BCSR/BELL block edge, seed the B fill.
func NewVariantInput(coo *matrix.COO[float64], k, threads, block int, seed int64) *VariantInput {
	b := matrix.NewDenseRand[float64](coo.Cols, k, seed)
	return &VariantInput{COO: coo, Block: block, B: b, K: k, Threads: threads}
}

// Prepare returns the format v consumes, converting and caching it on first
// use. It is not safe for concurrent use.
func (in *VariantInput) Prepare(v Variant) (formats.Sparse, error) {
	key := v.Format
	if v.Layout == formats.ColMajor {
		key += "-colmajor"
	}
	if a, ok := in.Formats[key]; ok {
		return a, nil
	}
	a, err := formats.FromCOO(v.Format, in.COO, formats.Params{Block: in.Block, Layout: v.Layout})
	if err != nil {
		return nil, fmt.Errorf("kernels: %s conversion: %w", key, err)
	}
	if in.Formats == nil {
		in.Formats = map[string]formats.Sparse{}
	}
	in.Formats[key] = a
	return a, nil
}

// spec binds the variant's coordinates to in's resources.
func (v Variant) spec(in *VariantInput) Spec {
	s := Spec{Threads: 1, Schedule: v.Schedule, Pool: in.Pool}
	if v.Parallel {
		s.Threads = in.Threads
	}
	if v.Ctx {
		s.Ctx = context.Background()
	}
	return s
}

// Run executes the variant against in, overwriting out[:, :in.K].
func (v Variant) Run(in *VariantInput, out *matrix.Dense[float64]) error {
	a, err := in.Prepare(v)
	if err != nil {
		return err
	}
	if v.ablation != nil {
		return v.ablation(a, in, out)
	}
	return Multiply(a, in.B, out, in.K, v.spec(in))
}

// RunVariant executes the named variant against in.
func RunVariant(name string, in *VariantInput, out *matrix.Dense[float64]) error {
	v, ok := ParseVariant(name)
	if !ok {
		return fmt.Errorf("kernels: unknown variant %q", name)
	}
	return v.Run(in, out)
}
