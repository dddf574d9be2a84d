package studies

import (
	"bytes"
	"hash/fnv"
	"strings"
	"testing"
)

// tinyConfig keeps study tests fast: three small matrices, minimal scale.
func tinyConfig() Config {
	return Config{
		Scale:    0.02,
		GPUScale: 0.01,
		Reps:     1,
		Matrices: []string{"bcsstk13", "dw4096", "bcsstk17"},
	}
}

// studyPins holds, per study at tinyConfig, an FNV-1a hash of each
// section's title and CSV in section order, so a change to either simulator
// that moves any simulated number fails here. Study 9 times the real
// kernels on the host, so its two sections are left unpinned (0).
var studyPins = map[string][]uint64{
	"props": {0xe5aa48229368e8e3},
	"1": {
		0x927886a7a283a1, 0x3e0db5994217e6bf, 0xda41c91adf3c48a, 0xc067519e6e0f1ac0,
		0x31513e1840d0831d,
	},
	"2": {
		0xd217df1522d37fac, 0x67038f47aa094039, 0xd43d6629d1efb5f3, 0x627852bcbff702a6,
		0x849f409d2d92c465, 0xab54babae54f794b, 0x8fab09a1aaef2414, 0x74c6f41eaa674d7e,
	},
	"3": {
		0xa8006d4fe883b1a3, 0x2cd41089282a1f6c, 0xb2ecb21c2096f83f, 0x87db3d6aa4fc613c,
		0x52114754aa2977b5, 0xa4865913258cf828, 0x56570c28cbe28f4d, 0xd247f40d77bc9dd0,
	},
	"3.1": {
		0x89ce922f6defa437, 0x480d076c99f8d7d3, 0x32220b9fd1d9ea95, 0x598ab00295da764d,
	},
	"4": {
		0x48c952c853697a26, 0x9e1ba10647a94ba1, 0x875d903d67811fda, 0x8437310e0e0666f2,
		0x959b9032156b40d8, 0xd50f81368ebb8040, 0x284c92bbe8e750f3, 0x5901c667e93325f2,
	},
	"5": {
		0x1b6b571c714fa2a2, 0x2e5539698774f2b2, 0x564c1aaa143db0c5, 0x506dd7779538760e,
		0x6e20ac1bcb6ca6de,
	},
	"6": {0x3f9067a7da7d0486, 0x257ecad74d1001a3},
	"7": {0x59a3cb2bf3c7ed25, 0xc95e81f57abdf87c},
	"8": {
		0xf5df3b37e667c022, 0xaac8996c95cf8ba0, 0x35d0770d3e61d4a4, 0x3ab7685665eb0157,
		0x5d489674dee8ffa9, 0x90df6e568cf290f8, 0x348865d30ad030e4, 0x9b4e01913a49b9c1,
	},
	"9":     {0, 0},
	"mem":   {0xc641fb4e50b02b08, 0x2c948de9f14a95da},
	"sched": {0x174dd9a504914e3d, 0xf96feaffe8730ba0},
}

func sectionHash(t *testing.T, s Section) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s.Title + "\n"))
	if err := s.Table.WriteCSV(h); err != nil {
		t.Fatal(err)
	}
	return h.Sum64()
}

func TestAllStudiesRun(t *testing.T) {
	for _, id := range All() {
		id := id
		t.Run("study_"+id, func(t *testing.T) {
			sections, err := Run(id, tinyConfig())
			if err != nil {
				t.Fatalf("study %s: %v", id, err)
			}
			if len(sections) == 0 {
				t.Fatalf("study %s produced no sections", id)
			}
			pins := studyPins[id]
			if len(pins) != len(sections) {
				t.Errorf("study %s: %d pins for %d sections", id, len(pins), len(sections))
			}
			for i, s := range sections {
				if s.Title == "" {
					t.Fatalf("study %s: untitled section", id)
				}
				if s.Table.NumRows() == 0 {
					t.Fatalf("study %s: empty table %q", id, s.Title)
				}
				if i < len(pins) && pins[i] == 0 {
					continue
				}
				if got := sectionHash(t, s); i >= len(pins) || got != pins[i] {
					t.Errorf("study %s section %d %q: hash %#x does not match its pin", id, i, s.Title, got)
				}
			}
		})
	}
}

func TestRunUnknownStudy(t *testing.T) {
	if _, err := Run("42", tinyConfig()); err == nil {
		t.Fatal("unknown study accepted")
	}
}

func TestConfigValidation(t *testing.T) {
	bad := tinyConfig()
	bad.Scale = 0
	if _, err := Run("props", bad); err == nil {
		t.Fatal("zero scale accepted")
	}
	bad = tinyConfig()
	bad.Reps = 0
	if _, err := Run("props", bad); err == nil {
		t.Fatal("zero reps accepted")
	}
	bad = tinyConfig()
	bad.GPUScale = 2
	if _, err := Run("props", bad); err == nil {
		t.Fatal("oversized gpu scale accepted")
	}
}

func TestRenderOutput(t *testing.T) {
	sections, err := Run("props", tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Render(&buf, sections); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "## Table 5.1") {
		t.Fatalf("missing section header:\n%s", out)
	}
	for _, m := range tinyConfig().Matrices {
		if !strings.Contains(out, m) {
			t.Fatalf("missing matrix %s:\n%s", m, out)
		}
	}
}

func TestPropsMatchTable51Shape(t *testing.T) {
	cfg := tinyConfig()
	cfg.Matrices = nil // all 14
	sections, err := Run("props", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if sections[0].Table.NumRows() != 14 {
		t.Fatalf("Table 5.1 has %d rows, want 14", sections[0].Table.NumRows())
	}
}

func TestStudy7RunsNineMatricesPerDevice(t *testing.T) {
	cfg := tinyConfig()
	cfg.Matrices = nil
	sections, err := Run("7", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(sections) != 2 {
		t.Fatalf("study 7 should have 2 device sections, got %d", len(sections))
	}
	for _, s := range sections {
		if s.Table.NumRows() != 9 {
			t.Fatalf("%q: %d rows, want 9 (the paper's memory-feasible set)",
				s.Title, s.Table.NumRows())
		}
	}
}

func TestStudy7VendorWinsMostly(t *testing.T) {
	cfg := tinyConfig()
	cfg.Matrices = nil
	sections, err := Run("7", cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Render(&buf, sections); err != nil {
		t.Fatal(err)
	}
	// The Study 7 headline: the vendor kernels win on (almost) all
	// matrices; "2/2" should dominate the "vendor wins" column.
	wins := strings.Count(buf.String(), "2/2")
	if wins < 12 { // 18 rows total across both devices
		t.Fatalf("vendor kernels won 2/2 on only %d of 18 rows:\n%s", wins, buf.String())
	}
}

func TestStudy1HasFiveSections(t *testing.T) {
	sections, err := Run("1", tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	// serial+omp for each of two architectures, plus the Arm GPU panel.
	if len(sections) != 5 {
		t.Fatalf("study 1 has %d sections, want 5", len(sections))
	}
}

func TestStudy2OmitsAriesGPU(t *testing.T) {
	sections, err := Run("2", tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range sections {
		hasGPU := false
		for _, h := range s.Table.Header {
			if h == "gpu" {
				hasGPU = true
			}
		}
		isArm := strings.Contains(s.Title, "Arm")
		if isArm && !hasGPU {
			t.Fatalf("%q: Arm sections must include the GPU column", s.Title)
		}
		if !isArm && hasGPU {
			t.Fatalf("%q: x86 sections must omit the GPU column (the thesis discarded Aries GPU data)", s.Title)
		}
	}
}

func TestStudiesDeterministic(t *testing.T) {
	run := func() string {
		sections, err := Run("6", tinyConfig())
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := Render(&buf, sections); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	if run() != run() {
		t.Fatal("study 6 output must be deterministic")
	}
}
