package studies

import (
	"fmt"
	"math/rand"

	"repro/internal/formats"
	"repro/internal/kernels"
	"repro/internal/machine"
	"repro/internal/matrix"
	"repro/internal/metrics"
)

// studySched is the scheduling study added by this suite (it extends the
// thesis, which only ran OpenMP's static schedule): row-static versus
// nonzero-balanced chunking for the parallel CSR kernel on both simulated
// sockets. The registry matrices are FEM-style and fairly uniform (low row
// Gini), so the table includes a synthetic power-law matrix whose hub rows
// are exactly the workload balanced scheduling exists for; the Gini column
// ties each speedup back to the imbalance metric spmmadvise reports.
func (e *env) studySched() ([]Section, error) {
	p := e.params()
	sections := []Section{}
	type entry struct {
		name string
		coo  *matrix.COO[float64]
		csr  formats.Sparse
	}
	entries := []entry{}
	for _, name := range e.cfg.matrixNames() {
		m, err := e.matrix(name, e.cfg.Scale)
		if err != nil {
			return nil, err
		}
		f, err := e.prepared(name, e.cfg.Scale, "csr", p.BlockSize)
		if err != nil {
			return nil, err
		}
		entries = append(entries, entry{name, m, f})
	}
	skew := powerLawMatrix(4000, 600, 5)
	entries = append(entries, entry{"powerlaw*", skew, formats.CSRFromCOO(skew)})

	for _, mc := range machine.Machines() {
		t := metrics.NewTable("matrix", "gini", "static", "balanced", "speedup")
		for _, en := range entries {
			props := metrics.Compute(en.coo)
			static, err := mc.Simulate(en.csr, p.K, p.Threads, kernels.ScheduleStatic, kernels.InnerTiled)
			if err != nil {
				return nil, fmt.Errorf("study sched (%s static): %w", en.name, err)
			}
			balanced, err := mc.Simulate(en.csr, p.K, p.Threads, kernels.ScheduleBalanced, kernels.InnerTiled)
			if err != nil {
				return nil, fmt.Errorf("study sched (%s balanced): %w", en.name, err)
			}
			speedup := 0.0
			if static.MFLOPS > 0 {
				speedup = balanced.MFLOPS / static.MFLOPS
			}
			t.AddRow(en.name,
				fmt.Sprintf("%.2f", props.Gini),
				fmtMF(static.MFLOPS),
				fmtMF(balanced.MFLOPS),
				fmt.Sprintf("%.2f", speedup))
		}
		sections = append(sections, Section{
			Title: fmt.Sprintf("Study sched: CSR static vs nonzero-balanced, %d threads, %s, MFLOPS (* = synthetic power-law)",
				p.Threads, archLabel(mc.Prof)),
			Table: t,
		})
	}
	return sections, nil
}

// powerLawMatrix builds the hub-heavy synthetic matrix of the scheduling
// study: cubed-uniform row degrees, periodic empty rows, one full hub row.
func powerLawMatrix(rows, cols int, seed int64) *matrix.COO[float64] {
	rng := rand.New(rand.NewSource(seed))
	m := matrix.NewCOO[float64](rows, cols, 0)
	for i := 0; i < rows; i++ {
		u := rng.Float64()
		deg := int(u * u * u * float64(cols))
		if i%17 == 0 {
			deg = 0
		}
		if i == rows/3 {
			deg = cols
		}
		for d := 0; d < deg; d++ {
			m.Append(int32(i), int32(rng.Intn(cols)), rng.NormFloat64())
		}
	}
	m.Dedup()
	return m
}
