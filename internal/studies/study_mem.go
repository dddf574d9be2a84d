package studies

import (
	"fmt"

	"repro/internal/formats"
	"repro/internal/metrics"
)

// studyMem implements the memory-footprint analysis the thesis' future work
// calls for (§6.3.5): it observed its benchmarks "used a huge amount of the
// available RAM" and attributed it to (a) keeping the COO base matrix plus
// the formatted matrix plus the dense B and C resident at once, and (b)
// 64-bit types everywhere. This study quantifies both: per-format bytes for
// each matrix, the padding overheads of the blocked formats, the total
// resident set of one benchmark run, and the float32 saving.
func (e *env) studyMem() ([]Section, error) {
	k := e.params().K

	// "ell" is the thesis' ELLPACK — the two padded arrays; "ell-r" is what
	// this suite holds, the same arrays plus 4 bytes of stored length a row
	// (bell4 and sellcs carry theirs too; the thesis has neither format).
	perFormat := metrics.NewTable("matrix", "coo", "csr", "ell", "ell-r", "ell-overhead",
		"bcsr4", "bcsr4-fill", "bell4", "sellcs", "csr-f32")
	resident := metrics.NewTable("matrix", "coo(A)", "formatted(CSR)", "B", "C",
		"total", "of which dense")
	for _, name := range e.cfg.matrixNames() {
		m, err := e.matrix(name, e.cfg.Scale)
		if err != nil {
			return nil, err
		}
		f := map[string]formats.Sparse{}
		for _, format := range []string{"csr", "ell", "bcsr", "bell", "sellcs"} {
			if f[format], err = e.prepared(name, e.cfg.Scale, format, 4); err != nil {
				return nil, err
			}
		}
		csr := f["csr"].(*formats.CSR[float64])
		ell := f["ell"].(*formats.ELL[float64])
		bcsr := f["bcsr"].(*formats.BCSR[float64])
		// The float32 variant halves every value slot (§6.3.5: "making
		// this change would cut our memory use in half").
		csr32 := csr.Bytes() - 4*len(csr.Vals)

		props := metrics.Compute(m)
		perFormat.AddRow(name,
			m.Bytes(), csr.Bytes(), ell.Bytes()-4*len(ell.RowLen), ell.Bytes(),
			fmt.Sprintf("%.1fx", props.ELLOverhead()),
			bcsr.Bytes(), fmt.Sprintf("%.2f", bcsr.FillRatio()),
			f["bell"].Bytes(), f["sellcs"].Bytes(), csr32)

		// One CSR benchmark run keeps the original COO (for verification),
		// the formatted matrix, and the dense operands resident — the
		// layout the thesis describes.
		bBytes := m.Cols * k * 8
		cBytes := m.Rows * k * 8
		total := m.Bytes() + csr.Bytes() + bBytes + cBytes
		denseShare := float64(bBytes+cBytes) / float64(total) * 100
		resident.AddRow(name, m.Bytes(), csr.Bytes(), bBytes, cBytes,
			total, fmt.Sprintf("%.0f%%", denseShare))
	}
	return []Section{
		{Title: fmt.Sprintf("Memory study (§6.3.5): format footprints in bytes (scale %g)", e.cfg.Scale),
			Table: perFormat},
		{Title: fmt.Sprintf("Memory study (§6.3.5): resident set of one CSR benchmark run, k=%d", k),
			Table: resident},
	}, nil
}
