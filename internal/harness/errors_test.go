package harness

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
)

func TestClassify(t *testing.T) {
	cases := []struct {
		err  error
		want Class
	}{
		{fmt.Errorf("wrapped: %w", ErrTransient), ClassTransient},
		{context.DeadlineExceeded, ClassTimeout},
		{fmt.Errorf("core: rep 2: %w", context.Canceled), ClassTimeout},
		{fmt.Errorf("verify: %w", core.ErrVerify), ClassVerifyFailed},
		{errors.New("some other failure"), ClassFatal},
		{&RunError{Class: ClassPanic, Err: errors.New("boom")}, ClassPanic},
	}
	for _, c := range cases {
		if got := Classify(c.err); got != c.want {
			t.Errorf("Classify(%v) = %s, want %s", c.err, got, c.want)
		}
	}
	for cl, retryable := range map[Class]bool{
		ClassTransient: true, ClassFatal: false, ClassPanic: false,
		ClassTimeout: false, ClassVerifyFailed: false, ClassOverBudget: false,
	} {
		if cl.Retryable() != retryable {
			t.Errorf("%s.Retryable() = %v", cl, cl.Retryable())
		}
	}
}

func TestRunErrorUnwrapsBothWays(t *testing.T) {
	cause := errors.New("socket reset")
	err := error(&RunError{RunID: "id", Class: ClassTransient, Attempt: 2,
		Err: fmt.Errorf("attempt: %w", cause)})
	if !errors.Is(err, ErrTransient) {
		t.Fatal("RunError does not match its class sentinel")
	}
	if !errors.Is(err, cause) {
		t.Fatal("RunError does not match its cause")
	}
	if msg := err.Error(); msg == "" {
		t.Fatal("empty message")
	}
}

func TestBackoffGrowthCapAndJitter(t *testing.T) {
	b := Backoff{Base: 100 * time.Millisecond, Max: time.Second, Factor: 2, Jitter: 0.2}
	rng := rand.New(rand.NewSource(1))
	prev := time.Duration(0)
	for attempt := 1; attempt <= 8; attempt++ {
		d := b.Delay(attempt, rng)
		// Nominal delay: base * factor^(attempt-1), capped at Max, then
		// jittered by ±20%.
		nominal := 100 * time.Millisecond
		for i := 1; i < attempt; i++ {
			nominal *= 2
			if nominal > time.Second {
				nominal = time.Second
				break
			}
		}
		lo := time.Duration(float64(nominal) * 0.8)
		hi := time.Duration(float64(nominal) * 1.2)
		if d < lo || d > hi {
			t.Fatalf("attempt %d: delay %v outside [%v, %v]", attempt, d, lo, hi)
		}
		if attempt <= 4 && d <= prev {
			t.Fatalf("attempt %d: delay %v did not grow past %v", attempt, d, prev)
		}
		prev = d
	}
	// Same seed, same sequence.
	a1, a2 := rand.New(rand.NewSource(7)), rand.New(rand.NewSource(7))
	for i := 1; i < 5; i++ {
		if b.Delay(i, a1) != b.Delay(i, a2) {
			t.Fatal("backoff is not deterministic per seed")
		}
	}
}

func TestBackoffZeroValueDefaults(t *testing.T) {
	var b Backoff
	d := b.Delay(1, rand.New(rand.NewSource(1)))
	def := DefaultBackoff()
	lo := time.Duration(float64(def.Base) * (1 - def.Jitter))
	hi := time.Duration(float64(def.Base) * (1 + def.Jitter))
	if d < lo || d > hi {
		t.Fatalf("zero-value first delay %v outside default range [%v, %v]", d, lo, hi)
	}
}

func TestEstimateBytesELLBlowUp(t *testing.T) {
	// One 300-entry row in a 400-row matrix: ELL pads every row to 300.
	pr := metrics.Properties{Rows: 400, Cols: 400, NNZ: 700, MaxRow: 300}
	ell := EstimateBytes("ell", pr, 4)
	csr := EstimateBytes("csr", pr, 4)
	coo := EstimateBytes("coo", pr, 4)
	if ell != int64(400)*300*12+400*4 { // the padded arrays and the row lengths
		t.Fatalf("ell estimate %d", ell)
	}
	if csr >= ell || coo >= ell {
		t.Fatalf("padding blow-up not reflected: ell %d csr %d coo %d", ell, csr, coo)
	}
	if coo != 700*16 {
		t.Fatalf("coo estimate %d", coo)
	}
}

func TestFallbackChain(t *testing.T) {
	steps := []string{}
	format := "ell"
	for {
		fb, ok := Fallback(format)
		if !ok {
			break
		}
		steps = append(steps, fb)
		format = fb
	}
	if len(steps) != 2 || steps[0] != "csr" || steps[1] != "coo" {
		t.Fatalf("ell fallback chain %v, want [csr coo]", steps)
	}
	if _, ok := Fallback("coo"); ok {
		t.Fatal("coo must be the end of the chain")
	}
}

func TestFallbackKernelRewriting(t *testing.T) {
	cases := []struct{ in, from, to, want string }{
		{"ell-serial", "ell", "csr", "csr-serial"},
		{"bcsr-omp", "bcsr", "csr", "csr-omp"},
		{"csr-omp", "csr", "coo", "coo-omp"},
		// Vendor and transposed-B kernels degrade to the plain kernel of the
		// fallback format: neither exists for it.
		{"vendor-csr-gpu", "csr", "coo", "coo-gpu"},
		{"csr-gpu-t", "csr", "coo", "coo-gpu"},
	}
	for _, c := range cases {
		if got := fallbackKernel(c.in, c.from, c.to); got != c.want {
			t.Errorf("fallbackKernel(%q, %s->%s) = %q, want %q", c.in, c.from, c.to, got, c.want)
		}
	}
	if got := FormatOf("vendor-csr-gpu"); got != "csr" {
		t.Errorf("FormatOf(vendor-csr-gpu) = %q", got)
	}
	if got := FormatOf("sellcs-omp"); got != "sellcs" {
		t.Errorf("FormatOf(sellcs-omp) = %q", got)
	}
}

// TestFallbackChainsStayRegistered walks every registry kernel through its
// whole degradation chain: each step must name a kernel core.New builds, or
// an over-budget run fails as an unknown kernel instead of degrading.
func TestFallbackChainsStayRegistered(t *testing.T) {
	registered := map[string]bool{}
	for _, name := range core.Names() {
		registered[name] = true
	}
	for _, name := range core.Names() {
		kernel, format := name, FormatOf(name)
		for {
			fb, ok := Fallback(format)
			if !ok {
				break
			}
			next := fallbackKernel(kernel, format, fb)
			if !registered[next] {
				t.Errorf("%s: %s degrades to %s, which is not a registered kernel", name, kernel, next)
			}
			kernel, format = next, fb
		}
	}
}

func TestParseBytes(t *testing.T) {
	good := map[string]int64{
		"512":    512,
		"64KiB":  64 << 10,
		"64kb":   64 << 10,
		"2MiB":   2 << 20,
		"1GiB":   1 << 30,
		"1.5GiB": 3 << 29,
		"100b":   100,
	}
	for in, want := range good {
		got, err := ParseBytes(in)
		if err != nil || got != want {
			t.Errorf("ParseBytes(%q) = %d, %v; want %d", in, got, err, want)
		}
	}
	for _, bad := range []string{"", "abc", "-5MiB", "5TiB"} {
		if _, err := ParseBytes(bad); err == nil {
			t.Errorf("ParseBytes(%q) accepted", bad)
		}
	}
}
