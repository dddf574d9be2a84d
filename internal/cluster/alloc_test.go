package cluster

import (
	"runtime"
	"testing"

	"repro/internal/matrix"
	"repro/internal/serve"
)

// TestRoutedMultiplyAllocBudget is serve's TestMultiplyAllocBudget through
// the router, as the benchmark's cluster-routed workload runs it: no
// per-attempt timeout, so an attempt runs under the request's own context.
// What is left beyond the direct multiply is net/http's second hop and the
// router's route plan, outbound URL and request body (DESIGN.md section 8,
// "Allocations of one multiply").
func TestRoutedMultiplyAllocBudget(t *testing.T) {
	if raceBuild {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const k, warm, n = 32, 50, 200
	tc := newTestCluster(t, 2, func(c *Config) { c.AttemptTimeout = 0 })
	reg, err := tc.client.Register(serve.RegisterRequest{Name: "dw4096", Scale: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	b := matrix.NewDenseRand[float64](reg.Cols, k, 1)
	multiply := func() {
		if _, err := tc.client.Multiply(reg.ID, reg.Rows, b, k, 0); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < warm; i++ {
		multiply()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		multiply()
	}
	runtime.ReadMemStats(&after)
	objects := float64(after.Mallocs-before.Mallocs) / n
	t.Logf("%.1f objects per routed round trip", objects)
	if objects > 228 {
		t.Fatalf("one routed multiply allocates %.1f objects, want at most 228", objects)
	}
}
