package machine

import (
	"fmt"
	"testing"

	"repro/internal/formats"
	"repro/internal/gen"
	"repro/internal/kernels"
)

// goldenCase is one simulator call the studies make, with the numbers the
// model produced for it. threads = 1 is the single-core model on mc.Prof.
type goldenCase struct {
	machine string
	format  string
	threads int
	sched   kernels.Schedule
	inner   kernels.Inner
	cycles  float64
	miss    float64
}

// goldenCases pins every call the studies make on bcsstk13 @ 0.25, k = 16,
// BCSR at 4×4: serial tiled per format, serial transposed-B CSR, and the
// parallel static (tiled and transposed-B) and balanced calls at 8 and 96
// threads — below and above Grace's 72 cores. The comparison is exact: a
// refactor of the model must not move a bit.
var goldenCases = []goldenCase{
	{"grace-arm", "coo", 1, kernels.ScheduleStatic, kernels.InnerTiled, 579325.8000011295, 0.048526414879640836},
	{"grace-arm", "csr", 1, kernels.ScheduleStatic, kernels.InnerTiled, 504659.7000007992, 0.04633368027358717},
	{"grace-arm", "ell", 1, kernels.ScheduleStatic, kernels.InnerTiled, 1.164035800000553e+06, 0.06614265853919367},
	{"grace-arm", "bcsr", 1, kernels.ScheduleStatic, kernels.InnerTiled, 400597.70000037213, 0.10494400920639135},
	{"grace-arm", "csr", 1, kernels.ScheduleStatic, kernels.InnerTransB, 550958.700002451, 0.021051272116750612},
	{"grace-arm", "coo", 8, kernels.ScheduleStatic, kernels.InnerTiled, 85378.42400001337, 0},
	{"grace-arm", "csr", 8, kernels.ScheduleStatic, kernels.InnerTiled, 86633.16800001329, 0},
	{"grace-arm", "ell", 8, kernels.ScheduleStatic, kernels.InnerTiled, 141744.22400003372, 0},
	{"grace-arm", "bcsr", 8, kernels.ScheduleStatic, kernels.InnerTiled, 124309.23200002118, 0},
	{"grace-arm", "coo", 8, kernels.ScheduleStatic, kernels.InnerTransB, 184801.56800013376, 0},
	{"grace-arm", "csr", 8, kernels.ScheduleStatic, kernels.InnerTransB, 183692.16000012305, 0},
	{"grace-arm", "ell", 8, kernels.ScheduleStatic, kernels.InnerTransB, 239310.26399998332, 0},
	{"grace-arm", "bcsr", 8, kernels.ScheduleStatic, kernels.InnerTransB, 219140.5280000522, 0},
	{"grace-arm", "csr", 8, kernels.ScheduleBalanced, kernels.InnerTiled, 77394.41600000775, 0},
	{"grace-arm", "coo", 96, kernels.ScheduleStatic, kernels.InnerTiled, 163792.34400000155, 0},
	{"grace-arm", "csr", 96, kernels.ScheduleStatic, kernels.InnerTiled, 181185.38400000212, 0},
	{"grace-arm", "ell", 96, kernels.ScheduleStatic, kernels.InnerTiled, 209757.5760000033, 0},
	{"grace-arm", "bcsr", 96, kernels.ScheduleStatic, kernels.InnerTiled, 214871.08800000005, 0},
	{"grace-arm", "coo", 96, kernels.ScheduleStatic, kernels.InnerTransB, 618239.2800000724, 0},
	{"grace-arm", "csr", 96, kernels.ScheduleStatic, kernels.InnerTransB, 647241.6000000915, 0},
	{"grace-arm", "ell", 96, kernels.ScheduleStatic, kernels.InnerTransB, 689943.2880001002, 0},
	{"grace-arm", "bcsr", 96, kernels.ScheduleStatic, kernels.InnerTransB, 665641.056000079, 0},
	{"grace-arm", "csr", 96, kernels.ScheduleBalanced, kernels.InnerTiled, 173578.8000000019, 0},
	{"aries-x86", "coo", 1, kernels.ScheduleStatic, kernels.InnerTiled, 458948.5999999047, 0.048526414879640836},
	{"aries-x86", "csr", 1, kernels.ScheduleStatic, kernels.InnerTiled, 402531.84999992873, 0.04633368027358717},
	{"aries-x86", "ell", 1, kernels.ScheduleStatic, kernels.InnerTiled, 894676.5999998284, 0.06614265853919367},
	{"aries-x86", "bcsr", 1, kernels.ScheduleStatic, kernels.InnerTiled, 554521.5499999722, 0.10494400920639135},
	{"aries-x86", "csr", 1, kernels.ScheduleStatic, kernels.InnerTransB, 660599.75, 0.021051272116750612},
	{"aries-x86", "coo", 8, kernels.ScheduleStatic, kernels.InnerTiled, 88945.11999999847, 0},
	{"aries-x86", "csr", 8, kernels.ScheduleStatic, kernels.InnerTiled, 93431.4399999979, 0},
	{"aries-x86", "ell", 8, kernels.ScheduleStatic, kernels.InnerTiled, 144379.93999999596, 0},
	{"aries-x86", "bcsr", 8, kernels.ScheduleStatic, kernels.InnerTiled, 152071.03999999905, 0},
	{"aries-x86", "coo", 8, kernels.ScheduleStatic, kernels.InnerTransB, 242044.2, 0},
	{"aries-x86", "csr", 8, kernels.ScheduleStatic, kernels.InnerTransB, 243991.775, 0},
	{"aries-x86", "ell", 8, kernels.ScheduleStatic, kernels.InnerTransB, 299217.5, 0},
	{"aries-x86", "bcsr", 8, kernels.ScheduleStatic, kernels.InnerTransB, 291532.60000000003, 0},
	{"aries-x86", "csr", 8, kernels.ScheduleBalanced, kernels.InnerTiled, 82811.45999999884, 0},
	{"aries-x86", "coo", 96, kernels.ScheduleStatic, kernels.InnerTiled, 157018.76363636358, 0},
	{"aries-x86", "csr", 96, kernels.ScheduleStatic, kernels.InnerTiled, 168404.84999999986, 0},
	{"aries-x86", "ell", 96, kernels.ScheduleStatic, kernels.InnerTiled, 188336.16363636343, 0},
	{"aries-x86", "bcsr", 96, kernels.ScheduleStatic, kernels.InnerTiled, 239158.64545454556, 0},
	{"aries-x86", "coo", 96, kernels.ScheduleStatic, kernels.InnerTransB, 499234.1818181818, 0},
	{"aries-x86", "csr", 96, kernels.ScheduleStatic, kernels.InnerTransB, 507762.24999999994, 0},
	{"aries-x86", "ell", 96, kernels.ScheduleStatic, kernels.InnerTransB, 546634.4545454546, 0},
	{"aries-x86", "bcsr", 96, kernels.ScheduleStatic, kernels.InnerTransB, 559146.8636363635, 0},
	{"aries-x86", "csr", 96, kernels.ScheduleBalanced, kernels.InnerTiled, 161089.58636363625, 0},
}

// simulateGolden runs one golden case.
func simulateGolden(mc Multicore, a formats.Sparse, c goldenCase) (Result, error) {
	if c.threads == 1 {
		return Simulate(mc.Prof, a, goldenK, c.inner)
	}
	return mc.Simulate(a, goldenK, c.threads, c.sched, c.inner)
}

const goldenK = 16

func TestGoldenModel(t *testing.T) {
	m, _, err := gen.GenerateScaled("bcsstk13", 0.25)
	if err != nil {
		t.Fatal(err)
	}
	mats := map[string]formats.Sparse{}
	for _, f := range []string{"coo", "csr", "ell", "bcsr"} {
		if mats[f], err = formats.FromCOO(f, m, formats.Params{Block: 4}); err != nil {
			t.Fatal(err)
		}
	}
	machines := map[string]Multicore{}
	for _, mc := range Machines() {
		machines[mc.Prof.Name] = mc
	}
	if len(goldenCases) != 46 {
		t.Errorf("%d golden cases, want 46", len(goldenCases))
	}
	for _, c := range goldenCases {
		r, err := simulateGolden(machines[c.machine], mats[c.format], c)
		if err != nil {
			t.Fatalf("%s %s threads=%d: %v", c.machine, c.format, c.threads, err)
		}
		if r.Cycles != c.cycles || r.MemMissRate != c.miss {
			t.Errorf("%s %s threads=%d sched=%v inner=%d: got cycles %v miss %v, want %v %v; as a row:\n\t%s",
				c.machine, c.format, c.threads, c.sched, c.inner, r.Cycles, r.MemMissRate,
				c.cycles, c.miss, goldenRow(c, r))
		}
	}
}

// goldenRow spells c with r's numbers as a goldenCases literal.
func goldenRow(c goldenCase, r Result) string {
	return fmt.Sprintf("{%q, %q, %d, kernels.%s, kernels.%s, %v, %v},",
		c.machine, c.format, c.threads, schedName(c.sched), innerName(c.inner), r.Cycles, r.MemMissRate)
}

func schedName(s kernels.Schedule) string {
	if s == kernels.ScheduleBalanced {
		return "ScheduleBalanced"
	}
	return "ScheduleStatic"
}

func innerName(i kernels.Inner) string {
	if i == kernels.InnerTransB {
		return "InnerTransB"
	}
	return "InnerTiled"
}
