package obs_test

// Cross-layer acceptance test: drive the simulated GPU, the analytical cache
// machine, and the campaign harness for real, then assert the counters each
// layer flushes into the Default registry actually moved. This is the
// end-to-end contract behind `spmmbench -serve`: a scrape mid-campaign must
// show live hardware and progress numbers, not zeros.

import (
	"context"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/formats"
	"repro/internal/gpusim"
	"repro/internal/harness"
	"repro/internal/kernels"
	"repro/internal/machine"
	"repro/internal/matrix"
	"repro/internal/obs"
)

// metricValue sums every sample of the named family in the Default
// registry's exposition (labelled series included), so callers can diff
// before/after without caring how the family is partitioned.
func metricValue(t *testing.T, family string) float64 {
	t.Helper()
	var b strings.Builder
	if err := obs.Default.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, line := range strings.Split(b.String(), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, rest, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		if base, _, _ := strings.Cut(name, "{"); base != family {
			continue
		}
		v, err := strconv.ParseFloat(rest, 64)
		if err != nil {
			t.Fatalf("unparseable sample %q: %v", line, err)
		}
		sum += v
	}
	return sum
}

func randomCOO(rows, cols, nnz int) *matrix.COO[float64] {
	rng := rand.New(rand.NewSource(42))
	m := matrix.NewCOO[float64](rows, cols, nnz)
	for i := 0; i < nnz; i++ {
		m.Append(int32(rng.Intn(rows)), int32(rng.Intn(cols)), rng.NormFloat64())
	}
	m.Dedup()
	return m
}

func TestSimulatorCountersFlow(t *testing.T) {
	const k = 16
	coo := randomCOO(256, 256, 2048)
	csr := formats.CSRFromCOO(coo)
	b := matrix.NewDenseRand[float64](coo.Cols, k, 1)
	c := matrix.NewDense[float64](coo.Rows, k)

	l2Before := metricValue(t, "spmm_gpusim_l2_hits_total")
	dramBefore := metricValue(t, "spmm_gpusim_dram_bytes_total")
	dev, err := gpusim.NewDevice(gpusim.TestDevice(1 << 30))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := gpusim.SpMMCSR(dev, csr, b, c, k); err != nil {
		t.Fatal(err)
	}
	if got := metricValue(t, "spmm_gpusim_l2_hits_total"); got <= l2Before {
		t.Errorf("spmm_gpusim_l2_hits_total did not increase: %v -> %v", l2Before, got)
	}
	if got := metricValue(t, "spmm_gpusim_dram_bytes_total"); got <= dramBefore {
		t.Errorf("spmm_gpusim_dram_bytes_total did not increase: %v -> %v", dramBefore, got)
	}

	machBefore := metricValue(t, "spmm_machine_dram_bytes_total")
	simsBefore := metricValue(t, "spmm_machine_sims_total")
	if _, err := machine.Simulate(machine.GraceArm(), csr, k, kernels.InnerTiled); err != nil {
		t.Fatal(err)
	}
	if got := metricValue(t, "spmm_machine_dram_bytes_total"); got <= machBefore {
		t.Errorf("spmm_machine_dram_bytes_total did not increase: %v -> %v", machBefore, got)
	}
	if got := metricValue(t, "spmm_machine_sims_total"); got != simsBefore+1 {
		t.Errorf("spmm_machine_sims_total = %v, want %v", got, simsBefore+1)
	}

	dispatchBefore := metricValue(t, "spmm_kernels_dispatch_total")
	if err := kernels.CSR(csr, b, c, k, kernels.Spec{Threads: 2}); err != nil {
		t.Fatal(err)
	}
	if got := metricValue(t, "spmm_kernels_dispatch_total"); got != dispatchBefore+1 {
		t.Errorf("spmm_kernels_dispatch_total = %v, want %v", got, dispatchBefore+1)
	}

	// The golden line of the inner-loop gauge: a replica that reads 0 beside
	// peers reading 1 is the slow one, and this is why.
	var expo strings.Builder
	if err := obs.Default.WritePrometheus(&expo); err != nil {
		t.Fatal(err)
	}
	want := "# TYPE spmm_kernels_inner_vector gauge\nspmm_kernels_inner_vector 0\n"
	if matrix.VectorInner() {
		want = "# TYPE spmm_kernels_inner_vector gauge\nspmm_kernels_inner_vector 1\n"
	}
	if !strings.Contains(expo.String(), want) {
		t.Errorf("exposition lacks %q", want)
	}
}

func TestHarnessCountersFlow(t *testing.T) {
	runsBefore := metricValue(t, "spmm_harness_runs_total")
	okBefore := metricValue(t, `spmm_harness_run_status_total`)

	h, err := harness.New(harness.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	coo := randomCOO(64, 64, 256)
	plan := []harness.Spec{
		{
			Kernel: "csr-serial", Matrix: "rand64",
			Load:   func() (*matrix.COO[float64], error) { return coo, nil },
			Params: core.Params{Reps: 1, Threads: 1, BlockSize: 4, K: 8, Verify: true, Seed: 1},
		},
	}
	outs, err := h.Execute(context.Background(), plan)
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != 1 || outs[0].Status != harness.StatusOK {
		t.Fatalf("unexpected outcomes: %+v", outs)
	}

	if got := metricValue(t, "spmm_harness_runs_total"); got != runsBefore+1 {
		t.Errorf("spmm_harness_runs_total = %v, want %v", got, runsBefore+1)
	}
	if got := metricValue(t, "spmm_harness_run_status_total"); got != okBefore+1 {
		t.Errorf("spmm_harness_run_status_total = %v, want %v", got, okBefore+1)
	}
}
