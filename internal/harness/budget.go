package harness

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/metrics"
)

// EstimateBytes predicts the formatted footprint of `format` from the
// matrix's row-length statistics alone — before any memory is committed.
// The padded formats are where the guard matters: ELLPACK stores
// rows × MaxRow slots, so a single long row (torso1's column ratio is 44)
// multiplies the footprint by orders of magnitude; blocked formats are
// bounded by the worst case of one block per nonzero. Estimates are
// deliberately pessimistic upper bounds: the guard must never under-predict
// and then die in Prepare.
func EstimateBytes(format string, pr metrics.Properties, block int) int64 {
	const valBytes, idxBytes = 8, 4 // float64 values, int32 indices
	rows, cols, nnz := int64(pr.Rows), int64(pr.Cols), int64(pr.NNZ)
	switch format {
	case "coo":
		return nnz * (valBytes + 2*idxBytes)
	case "csr":
		return nnz*(valBytes+idxBytes) + (rows+1)*idxBytes
	case "ell", "sellcs":
		// SELL-C-σ pads each slice to its own maximum, which ELL's
		// rows × MaxRow bounds from above; both store a length per row.
		return rows*int64(pr.MaxRow)*(valBytes+idxBytes) + rows*idxBytes
	case "bcsr", "bell":
		if block < 1 {
			block = 1
		}
		b := int64(block)
		blockRows := (rows + b - 1) / b
		blockCols := (cols + b - 1) / b
		if format == "bell" {
			// ELL over blocks: every block row is padded to the worst
			// block count, itself at most min(blockCols, b·MaxRow).
			maxBlocks := min(blockCols, b*int64(pr.MaxRow))
			return blockRows*maxBlocks*(b*b*valBytes+idxBytes) + (blockRows+1)*idxBytes
		}
		// Worst case: every nonzero opens its own block.
		blocks := min(nnz, blockRows*blockCols)
		return blocks*(b*b*valBytes+idxBytes) + (blockRows+1)*idxBytes
	default:
		// Unknown format: assume COO-like triplet storage.
		return nnz * (valBytes + 2*idxBytes)
	}
}

// Fallback returns the format the harness degrades to when `format`'s
// estimate exceeds the budget. Padded and blocked formats fall back to CSR
// (exact nonzero storage); CSR falls back to COO; COO has nowhere left to
// go, so the run fails with ErrOverBudget.
func Fallback(format string) (string, bool) {
	switch format {
	case "ell", "bell", "bcsr", "sellcs":
		return "csr", true
	case "csr":
		return "coo", true
	default:
		return "", false
	}
}

// FormatOf extracts the format family from a registry kernel name:
// "ell-omp" → "ell", "csr-gpu-t" → "csr", "vendor-csr-gpu" → "csr".
func FormatOf(kernelName string) string {
	name := strings.TrimPrefix(kernelName, "vendor-")
	if i := strings.IndexByte(name, '-'); i > 0 {
		return name[:i]
	}
	return name
}

// fallbackKernel rewrites a registry kernel name to the plain kernel of the
// same mode in the fallback format: "ell-omp" → "csr-omp", "bell-gpu" →
// "csr-gpu", "csr-gpu-t" → "coo-gpu". Only the mode is kept: what else a
// name spells (the vendor- prefix, csr-gpu-t's -t) is a kernel of the
// source format alone, while every fallback format has a plain kernel in
// every mode.
func fallbackKernel(kernelName, from, to string) string {
	name := strings.TrimPrefix(kernelName, "vendor-")
	if name == from {
		return to
	}
	rest, ok := strings.CutPrefix(name, from+"-")
	if !ok {
		return kernelName
	}
	mode, _, _ := strings.Cut(rest, "-")
	return to + "-" + mode
}

// ParseBytes parses a human-readable byte size for the -mem-budget flag:
// a plain integer is bytes, and the case-insensitive suffixes kb/kib,
// mb/mib, gb/gib (and a bare b) select binary multiples.
func ParseBytes(s string) (int64, error) {
	t := strings.TrimSpace(strings.ToLower(s))
	if t == "" {
		return 0, fmt.Errorf("harness: empty byte size")
	}
	mult := int64(1)
	for _, u := range []struct {
		suffix string
		mult   int64
	}{
		{"kib", 1 << 10}, {"kb", 1 << 10},
		{"mib", 1 << 20}, {"mb", 1 << 20},
		{"gib", 1 << 30}, {"gb", 1 << 30},
		{"b", 1},
	} {
		if strings.HasSuffix(t, u.suffix) {
			t = strings.TrimSuffix(t, u.suffix)
			mult = u.mult
			break
		}
	}
	v, err := strconv.ParseFloat(strings.TrimSpace(t), 64)
	if err != nil || v < 0 {
		return 0, fmt.Errorf("harness: bad byte size %q", s)
	}
	return int64(v * float64(mult)), nil
}

// FormatBytesHuman renders a byte count for logs: 1536 → "1.5KiB".
func FormatBytesHuman(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.1fGiB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%dB", n)
	}
}
