// Package gen generates synthetic sparse matrices. The thesis benchmarks 14
// matrices downloaded from the SuiteSparse collection; this suite cannot
// ship those, so gen synthesises matrices calibrated to every column of the
// thesis' Table 5.1 (size, nonzeros, max/avg row degree, column ratio,
// variance). All the studies key off the row-degree distribution and the
// spatial locality of the nonzeros, which is exactly what the generators
// control, so the performance characterisation transfers.
//
// All generation is deterministic given the seed.
package gen

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

	"repro/internal/matrix"
)

// Kind selects the nonzero placement style.
type Kind uint8

const (
	// KindFEM clusters nonzeros around the diagonal in contiguous runs
	// with a small scattered remainder — the shape of the thesis' finite
	// element matrices (cant, bcsstk*, pdb1HYS, ...).
	KindFEM Kind = iota
	// KindStencil places perfectly regular diagonal bands — the shape of
	// the structured-grid matrices (dw4096, shallow_water1) whose row
	// variance is zero.
	KindStencil
	// KindPowerLaw clusters most rows like KindFEM but draws scattered
	// columns from a skewed (hub-heavy) distribution — the shape of
	// torso1, whose column ratio is 44.
	KindPowerLaw
)

func (k Kind) String() string {
	switch k {
	case KindStencil:
		return "stencil"
	case KindPowerLaw:
		return "powerlaw"
	default:
		return "fem"
	}
}

// DegreeParams describe a target row-degree distribution.
type DegreeParams struct {
	Rows int
	// NNZ is the target total number of nonzeros (sum of degrees).
	NNZ int
	// MaxRow is the exact maximum row degree; at least one row gets it.
	MaxRow int
	// Variance is the target variance of the per-row degree.
	Variance float64
}

// DegreeSequence synthesises a per-row degree sequence matching the target
// parameters: the sum is exactly NNZ, the maximum exactly MaxRow (when
// NNZ >= MaxRow), and the variance approximately Variance. Heavy-tailed
// targets (standard deviation exceeding the mean) use a lognormal draw so a
// torso1-like tail emerges naturally; otherwise a clipped normal is used.
func DegreeSequence(p DegreeParams, rng *rand.Rand) ([]int, error) {
	if p.Rows <= 0 {
		return nil, fmt.Errorf("gen: DegreeSequence needs positive rows, got %d", p.Rows)
	}
	if p.NNZ < 0 || p.MaxRow < 0 || p.Variance < 0 {
		return nil, fmt.Errorf("gen: negative degree parameters %+v", p)
	}
	if p.MaxRow > 0 && p.NNZ < p.MaxRow {
		return nil, fmt.Errorf("gen: NNZ=%d cannot accommodate MaxRow=%d", p.NNZ, p.MaxRow)
	}
	if int64(p.NNZ) > int64(p.Rows)*int64(p.MaxRow) {
		return nil, fmt.Errorf("gen: NNZ=%d exceeds Rows*MaxRow=%d", p.NNZ, p.Rows*p.MaxRow)
	}
	mean := float64(p.NNZ) / float64(p.Rows)
	std := math.Sqrt(p.Variance)
	deg := make([]int, p.Rows)

	draw := func() float64 { return mean }
	switch {
	case std == 0:
		// Constant degrees.
	case std > mean && mean > 0:
		// Lognormal calibrated to the target mean and variance.
		sigma2 := math.Log(1 + p.Variance/(mean*mean))
		mu := math.Log(mean) - sigma2/2
		sigma := math.Sqrt(sigma2)
		draw = func() float64 { return math.Exp(mu + sigma*rng.NormFloat64()) }
	default:
		draw = func() float64 { return mean + std*rng.NormFloat64() }
	}

	minDeg := 0
	if mean >= 1 {
		minDeg = 1
	}
	sum := 0
	for i := range deg {
		d := int(math.Round(draw()))
		if d < minDeg {
			d = minDeg
		}
		if d > p.MaxRow {
			d = p.MaxRow
		}
		deg[i] = d
		sum += d
	}

	// Pin the maximum on one row.
	if p.MaxRow > 0 {
		r0 := rng.Intn(p.Rows)
		sum += p.MaxRow - deg[r0]
		deg[r0] = p.MaxRow
		// Redistribute the total, never touching r0.
		adjustSum(deg, p.NNZ-sum, minDeg, p.MaxRow, r0, rng)
	} else {
		adjustSum(deg, p.NNZ-sum, minDeg, p.MaxRow, -1, rng)
	}
	return deg, nil
}

// adjustSum nudges random entries of deg by ±1 until the sum changes by
// diff, respecting [lo, hi] bounds and skipping index skip.
func adjustSum(deg []int, diff, lo, hi, skip int, rng *rand.Rand) {
	n := len(deg)
	if n == 0 || (n == 1 && skip == 0) {
		return
	}
	// A bounded number of full passes guards against pathological bound
	// saturation; random single steps handle the common case fast.
	stall := 0
	for diff != 0 && stall < 64*n {
		i := rng.Intn(n)
		if i == skip {
			continue
		}
		switch {
		case diff > 0 && deg[i] < hi:
			deg[i]++
			diff--
			stall = 0
		case diff < 0 && deg[i] > lo:
			deg[i]--
			diff++
			stall = 0
		default:
			stall++
		}
	}
}

// PlaceParams control nonzero placement for a given degree sequence.
type PlaceParams struct {
	Cols int
	Kind Kind
	// Locality is the fraction of each row's entries placed in a
	// contiguous run near the diagonal (0..1). Ignored by KindStencil,
	// which is fully banded.
	Locality float64
}

// FromDegrees builds a COO matrix with the given per-row degrees and
// placement style. Column indices within a row are distinct and sorted.
func FromDegrees[T matrix.Float](deg []int, p PlaceParams, rng *rand.Rand) (*matrix.COO[T], error) {
	rows := len(deg)
	if p.Cols <= 0 {
		return nil, fmt.Errorf("gen: FromDegrees needs positive cols, got %d", p.Cols)
	}
	loc := p.Locality
	if loc < 0 || loc > 1 {
		return nil, fmt.Errorf("gen: locality %v outside [0,1]", loc)
	}
	total := 0
	for i, d := range deg {
		if d < 0 || d > p.Cols {
			return nil, fmt.Errorf("gen: row %d degree %d outside [0, %d]", i, d, p.Cols)
		}
		total += d
	}
	m := matrix.NewCOO[T](rows, p.Cols, total)
	cols := make([]int32, 0, 512)
	// taken[c] == i+1 marks column c as used by row i, so nothing is
	// cleared between rows. A taken column's jump points at or before the
	// next free column, cyclically (every column from c up to jump[c] is
	// taken), so a collision skips a run of taken columns in one step.
	taken := make([]int32, p.Cols)
	jump := make([]int32, p.Cols)
	for i, d := range deg {
		if d == 0 {
			continue
		}
		cols = cols[:0]
		stamp := int32(i + 1)
		take := func(c int32) {
			taken[c] = stamp
			jump[c] = (c + 1) % int32(p.Cols)
			cols = append(cols, c)
		}
		diag := 0
		if rows > 1 {
			diag = i * (p.Cols - 1) / (rows - 1)
		}
		nLocal := d
		if p.Kind != KindStencil {
			nLocal = int(math.Round(float64(d) * loc))
		}
		// Contiguous run centred on the diagonal.
		start := diag - nLocal/2
		if start < 0 {
			start = 0
		}
		if start+nLocal > p.Cols {
			start = p.Cols - nLocal
		}
		for c := start; c < start+nLocal; c++ {
			take(int32(c))
		}
		// Scattered remainder.
		for len(cols) < d {
			var c int32
			if p.Kind == KindPowerLaw {
				// Hub-heavy: square a uniform draw so low-index
				// "hub" columns are hit far more often.
				u := rng.Float64()
				c = int32(u * u * float64(p.Cols))
			} else {
				c = int32(rng.Intn(p.Cols))
			}
			if c >= int32(p.Cols) {
				c = int32(p.Cols - 1)
			}
			// On a collision, take the next free column instead.
			take(nextFree(taken, jump, stamp, c))
		}
		slices.Sort(cols)
		for _, c := range cols {
			m.Append(int32(i), c, T(rng.Float64()*2-1))
		}
	}
	return m, nil
}

// nextFree returns the first column at or after c, cyclically, that the row
// stamped stamp has not taken, and points every taken column it passed
// straight at that column (path compression).
func nextFree(taken, jump []int32, stamp, c int32) int32 {
	free := c
	for taken[free] == stamp {
		free = jump[free]
	}
	for c != free {
		next := jump[c]
		jump[c] = free
		c = next
	}
	return free
}

// Banded generates a square matrix with a full band of the given half-width
// around the diagonal (a classic stencil matrix).
func Banded[T matrix.Float](n, halfWidth int, seed int64) (*matrix.COO[T], error) {
	if n < 0 || halfWidth < 0 {
		return nil, fmt.Errorf("gen: Banded(%d, %d)", n, halfWidth)
	}
	rng := rand.New(rand.NewSource(seed))
	m := matrix.NewCOO[T](n, n, n*(2*halfWidth+1))
	for i := 0; i < n; i++ {
		lo := max(i-halfWidth, 0)
		hi := min(i+halfWidth, n-1)
		for c := lo; c <= hi; c++ {
			m.Append(int32(i), int32(c), T(rng.Float64()*2-1))
		}
	}
	return m, nil
}

// UniformRandom generates a matrix with approximately the given density,
// with nonzeros placed uniformly at random (one pass per row, distinct
// columns).
func UniformRandom[T matrix.Float](rows, cols int, density float64, seed int64) (*matrix.COO[T], error) {
	if rows < 0 || cols < 0 || density < 0 || density > 1 {
		return nil, fmt.Errorf("gen: UniformRandom(%d, %d, %v)", rows, cols, density)
	}
	rng := rand.New(rand.NewSource(seed))
	perRow := int(math.Round(density * float64(cols)))
	deg := make([]int, rows)
	for i := range deg {
		deg[i] = perRow
	}
	return FromDegrees[T](deg, PlaceParams{Cols: cols, Kind: KindFEM, Locality: 0}, rng)
}

// RMAT generates a scale-free directed graph adjacency matrix with the
// R-MAT recursive partitioning model — the workload shape of the graph
// analytics and graph-neural-network systems that motivate SpMM in the
// thesis' introduction (GNN feature propagation is SpMM: adjacency ×
// feature matrix). a, b, c are the upper-left, upper-right and lower-left
// quadrant probabilities (a+b+c <= 1); the classic Graph500 parameters are
// 0.57, 0.19, 0.19. Duplicate edges are merged; values are 1 (an unweighted
// adjacency matrix).
func RMAT[T matrix.Float](scale int, edgeFactor int, a, b, c float64, seed int64) (*matrix.COO[T], error) {
	if scale < 1 || scale > 30 {
		return nil, fmt.Errorf("gen: RMAT scale %d outside [1, 30]", scale)
	}
	if edgeFactor < 1 {
		return nil, fmt.Errorf("gen: RMAT edge factor %d < 1", edgeFactor)
	}
	if a < 0 || b < 0 || c < 0 || a+b+c > 1 {
		return nil, fmt.Errorf("gen: RMAT probabilities (%v, %v, %v) invalid", a, b, c)
	}
	n := 1 << scale
	edges := n * edgeFactor
	rng := rand.New(rand.NewSource(seed))
	m := matrix.NewCOO[T](n, n, edges)
	for e := 0; e < edges; e++ {
		row, col := 0, 0
		for bit := scale - 1; bit >= 0; bit-- {
			u := rng.Float64()
			switch {
			case u < a:
				// upper-left: neither bit set
			case u < a+b:
				col |= 1 << bit
			case u < a+b+c:
				row |= 1 << bit
			default:
				row |= 1 << bit
				col |= 1 << bit
			}
		}
		m.Append(int32(row), int32(col), 1)
	}
	m.Dedup()
	return m, nil
}
