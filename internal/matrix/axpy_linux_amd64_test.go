//go:build !race

package matrix

import (
	"os"
	"slices"
	"strings"
	"testing"
)

// TestBodySelection checks the probe against the kernel's view of the CPU:
// Linux lists avx512f and avx2 in /proc/cpuinfo only when the CPU has them
// and the OS saves their registers, which is what cpuLevel tests. A wrong
// XCR0 mask would otherwise fall back to AVX2 unnoticed.
func TestBodySelection(t *testing.T) {
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skip(err)
	}
	var flags []string
	for _, line := range strings.Split(string(info), "\n") {
		if name, list, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "flags" {
			flags = strings.Fields(list)
			break
		}
	}
	if flags == nil {
		t.Skip("no flags line in /proc/cpuinfo")
	}
	want := scalar
	switch {
	case slices.Contains(flags, "avx512f"):
		want = avx512
	case slices.Contains(flags, "avx2"):
		want = avx2
	}
	if probed != want {
		t.Fatalf("init chose %v, /proc/cpuinfo says %v", probed, want)
	}
}
