package spmmbench

import (
	"bytes"
	"strings"
	"testing"
)

func TestFacadeQuickstartFlow(t *testing.T) {
	a, props, err := GenerateMatrix("bcsstk13", 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if props.NNZ == 0 || props.Rows == 0 {
		t.Fatalf("empty properties: %+v", props)
	}
	k, err := NewKernel("csr-omp", KernelOptions{})
	if err != nil {
		t.Fatal(err)
	}
	p := DefaultParams()
	p.Reps = 1
	p.Threads = 2
	p.K = 16
	res, err := RunBenchmark(k, a, "bcsstk13", p)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Verified || res.MFLOPS <= 0 {
		t.Fatalf("bad result: %+v", res)
	}
}

func TestFacadeFormatsAndIO(t *testing.T) {
	a, _, err := GenerateMatrix("dw4096", 0.1)
	if err != nil {
		t.Fatal(err)
	}
	csr := ToCSR(a)
	if csr.NNZ() != a.NNZ() {
		t.Fatal("CSR conversion lost entries")
	}
	ell := ToELL(a)
	if ell.Stored() < a.NNZ() {
		t.Fatal("ELL stored fewer than nnz")
	}
	b, err := ToBCSR(a, 4)
	if err != nil {
		t.Fatal(err)
	}
	if b.FillRatio() <= 0 || b.FillRatio() > 1 {
		t.Fatalf("fill ratio %v", b.FillRatio())
	}
	var buf bytes.Buffer
	if err := WriteMatrixMarket(&buf, a); err != nil {
		t.Fatal(err)
	}
	back, err := ReadMatrixMarket(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.NNZ() != a.NNZ() {
		t.Fatal("MatrixMarket round trip lost entries")
	}
}

func TestFacadeGPUAndStudies(t *testing.T) {
	dev, err := NewGPUDevice(false)
	if err != nil {
		t.Fatal(err)
	}
	a, _, err := GenerateMatrix("dw4096", 0.05)
	if err != nil {
		t.Fatal(err)
	}
	k, err := NewKernel("vendor-csr-gpu", KernelOptions{Device: dev})
	if err != nil {
		t.Fatal(err)
	}
	p := DefaultParams()
	p.Reps = 1
	p.K = 32
	res, err := RunBenchmark(k, a, "dw4096", p)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Verified {
		t.Fatal("gpu result not verified")
	}

	cfg := DefaultStudyConfig()
	cfg.Scale = 0.02
	cfg.GPUScale = 0.01
	cfg.Reps = 1
	cfg.Matrices = []string{"dw4096"}
	sections, err := RunStudy("props", cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := RenderStudy(&buf, sections); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "dw4096") {
		t.Fatal("study output missing matrix")
	}
}

func TestFacadeListings(t *testing.T) {
	if len(MatrixNames()) != 14 {
		t.Fatal("matrix names")
	}
	if len(KernelNames()) == 0 {
		t.Fatal("kernel names")
	}
	if len(StudyIDs()) != 13 {
		t.Fatalf("study ids: %v", StudyIDs())
	}
	if len(ArchProfiles()) != 2 {
		t.Fatal("arch profiles")
	}
}

func TestFacadeAdvisorAndSpMV(t *testing.T) {
	a, _, err := GenerateMatrix("dw4096", 0.1)
	if err != nil {
		t.Fatal(err)
	}
	f, err := ExtractFeatures(a)
	if err != nil {
		t.Fatal(err)
	}
	ranked := RecommendFormat(f, ParallelCPU)
	if len(ranked) != 4 || ranked[0].Format == "" {
		t.Fatalf("recommendations: %+v", ranked)
	}
	p := DefaultParams()
	p.Reps = 1
	p.Threads = 2
	best, results, err := MeasureFormats(a, SerialCPU, p, KernelOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if best == "" || len(results) != 4 {
		t.Fatalf("measure: %q, %d results", best, len(results))
	}

	// SpMV is the regular runner at K = 1.
	k, err := NewKernel("sellcs-serial", KernelOptions{})
	if err != nil {
		t.Fatal(err)
	}
	p.K = 1
	r, err := RunBenchmark(k, a, "dw4096", p)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Verified || r.K != 1 || r.MaxAbsDiff != 0 {
		t.Fatalf("spmv result: verified=%v k=%d diff=%g", r.Verified, r.K, r.MaxAbsDiff)
	}
}
