package serve

import (
	"encoding/csv"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"testing"

	"repro/internal/gen"
)

// regretCell is one (run, matrix, k) cell of the host's plan-regret table:
// each servable variant's median time per call.
type regretCell struct {
	matrix string
	median map[string]float64
}

// regret is variant v's median over the cell's best median.
func (c regretCell) regret(v string) float64 {
	best := -1.0
	for _, m := range c.median {
		if best < 0 || m < best {
			best = m
		}
	}
	return c.median[v] / best
}

// loadRegretTable reads results/host/plan-regret.csv (EXPERIMENTS.md,
// "Serving plan regret on the host").
func loadRegretTable(t *testing.T) (cells []regretCell, variants []string) {
	t.Helper()
	f, err := os.Open(filepath.Join("..", "..", "results", "host", "plan-regret.csv"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rows, err := csv.NewReader(f).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	col := map[string]int{}
	for i, name := range rows[0] {
		col[name] = i
	}
	index := map[string]int{}
	for _, r := range rows[1:] {
		key := r[col["run"]] + "/" + r[col["matrix"]] + "/" + r[col["k"]]
		i, ok := index[key]
		if !ok {
			i = len(cells)
			index[key] = i
			cells = append(cells, regretCell{matrix: r[col["matrix"]], median: map[string]float64{}})
		}
		med, err := strconv.ParseFloat(r[col["median_us"]], 64)
		if err != nil {
			t.Fatal(err)
		}
		v := r[col["variant"]]
		cells[i].median[v] = med
		if !slices.Contains(variants, v) {
			variants = append(variants, v)
		}
	}
	return cells, variants
}

// median returns the middle of xs (the upper middle for an even count).
func median(xs []float64) float64 {
	s := slices.Clone(xs)
	sort.Float64s(s)
	return s[len(s)/2]
}

// TestAdvisorRegret holds the serving plan to the host's regret table. For
// each registry matrix, in a subtest named for it, the constant plan with
// the lowest worst regret over the other 13 matrices (ties broken by median)
// must be the plan advise serves the held-out one; over the held-out cells,
// that plan's median regret must be at most 1.05 and its worst at most 1.25.
func TestAdvisorRegret(t *testing.T) {
	cells, variants := loadRegretTable(t)
	var matrices []string
	for _, c := range cells {
		if !slices.Contains(matrices, c.matrix) {
			matrices = append(matrices, c.matrix)
		}
	}
	if len(matrices) != len(gen.Names()) {
		t.Fatalf("table covers %d matrices, the registry has %d", len(matrices), len(gen.Names()))
	}
	var held []float64
	for _, name := range matrices {
		t.Run(name, func(t *testing.T) {
			var train []regretCell
			for _, c := range cells {
				if c.matrix != name {
					train = append(train, c)
				}
			}
			pick, pickWorst, pickMed := "", 0.0, 0.0
			for _, v := range variants {
				var rs []float64
				for _, c := range train {
					rs = append(rs, c.regret(v))
				}
				worst, med := slices.Max(rs), median(rs)
				if pick == "" || worst < pickWorst || (worst == pickWorst && med < pickMed) {
					pick, pickWorst, pickMed = v, worst, med
				}
			}
			m, _, err := gen.GenerateScaled(name, 0.05)
			if err != nil {
				t.Fatal(err)
			}
			Canonicalize(m)
			_, plan, err := advise(name, m)
			if err != nil {
				t.Fatal(err)
			}
			if plan.Variant != pick {
				t.Errorf("advise serves %s; the table without %s reads %s", plan.Variant, name, pick)
			}
			for _, c := range cells {
				if c.matrix == name {
					held = append(held, c.regret(plan.Variant))
				}
			}
		})
	}
	if len(held) == 0 {
		return // every subtest failed before it read its cells
	}
	med, worst := median(held), slices.Max(held)
	t.Logf("served plans over %d held-out cells: median regret %.3f, worst %.3f", len(held), med, worst)
	if med > 1.05 || worst > 1.25 {
		t.Fatalf("served plans regret median %.3f (bound 1.05), worst %.3f (bound 1.25)", med, worst)
	}
}
