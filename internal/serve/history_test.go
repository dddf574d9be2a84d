package serve

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/delta"
	"repro/internal/gen"
	"repro/internal/harness"
	"repro/internal/kernels"
	"repro/internal/matrix"
)

// The generated-history checker: instead of scripting one interleaving per
// test, a seeded generator walks the per-matrix state machine through random
// register / mutate / promote / compact / snapshot / close+reopen steps with
// injected durability faults, against a reference model that knows nothing of
// the implementation — a plain COO per handle folded through the delta
// package, an expected epoch, the last acked plan. After every step every
// handle must serve bits equal to csr-serial over the model's merged matrix
// at the model's epoch, hash and plan; after every reopen the recovered
// state must equal the pre-close one field for field. The prepared-format
// cache budget is drawn per history (unbounded, one format, none), so the
// per-step verification doubles as eviction churn.

// histMatrix is the reference model of one handle.
type histMatrix struct {
	id                      string
	base                    *matrix.COO[float64]
	ov                      *delta.Overlay // nil while clean
	epoch, compactedThrough int64
	baseHash                string
	plan                    Plan // last acked
}

// merged is the matrix the handle must serve.
func (h *histMatrix) merged() *matrix.COO[float64] {
	if h.ov.NNZ() > 0 {
		return h.ov.Merge()
	}
	return h.base
}

// history is one run: the server under test, the model, and the script so
// far (printed with the seed when a check fails).
type history struct {
	t      *testing.T
	seed   int64
	rng    *rand.Rand
	cfg    Config
	inject *harness.Injector
	srv    *Server
	model  []*histMatrix
	script []string
}

// histSpecs are generator specs small enough to register by the hundred.
var histSpecs = []RegisterSource{
	{Name: "dw4096", Scale: 0.005}, {Name: "dw4096", Scale: 0.01},
	{Name: "bcsstk13", Scale: 0.02}, {Name: "bcsstk17", Scale: 0.005},
}

func (h *history) failf(format string, args ...any) {
	h.t.Helper()
	h.t.Fatalf("seed %d, step %d: %s\nscript:\n  %s", h.seed, len(h.script),
		fmt.Sprintf(format, args...), strings.Join(h.script, "\n  "))
}

func (h *history) open() {
	srv, err := New(h.cfg)
	if err != nil {
		h.failf("open: %v", err)
	}
	h.srv = srv
}

// pick returns a random registered handle, nil when there is none.
func (h *history) pick() *histMatrix {
	if len(h.model) == 0 {
		return nil
	}
	return h.model[h.rng.Intn(len(h.model))]
}

// Each write step returns the error the server answered; the caller decides
// whether an error was expected (an armed fault) and only folds the step
// into the model when it was acked.

func (h *history) register() (func(), error) {
	var coo *matrix.COO[float64]
	var src RegisterSource
	if h.rng.Intn(3) == 0 {
		rows, cols := 8+h.rng.Intn(40), 8+h.rng.Intn(40)
		coo = &matrix.COO[float64]{Rows: rows, Cols: cols}
		for i := 0; i < 3*rows; i++ {
			coo.RowIdx = append(coo.RowIdx, int32(h.rng.Intn(rows)))
			coo.ColIdx = append(coo.ColIdx, int32(h.rng.Intn(cols)))
			coo.Vals = append(coo.Vals, h.rng.NormFloat64())
		}
		h.script = append(h.script, fmt.Sprintf("register %dx%d triplets", rows, cols))
	} else {
		src = histSpecs[h.rng.Intn(len(histSpecs))]
		var err error
		if coo, _, err = gen.GenerateScaled(src.Name, src.Scale); err != nil {
			h.failf("generate: %v", err)
		}
		h.script = append(h.script, fmt.Sprintf("register %s@%g", src.Name, src.Scale))
	}
	m, existed, err := h.srv.Registry().RegisterSourced(coo, src)
	if err != nil || existed {
		return func() {}, err
	}
	return func() {
		h.model = append(h.model, &histMatrix{id: m.ID, base: coo.Clone(), baseHash: m.ID, plan: m.Plan()})
	}, nil
}

func (h *history) mutate(m *histMatrix) (func(), error) {
	ops := make([]delta.Op, 1+h.rng.Intn(6))
	for i := range ops {
		ops[i] = delta.Op{Row: int32(h.rng.Intn(m.base.Rows)), Col: int32(h.rng.Intn(m.base.Cols))}
		if ops[i].Del = h.rng.Intn(4) == 0; !ops[i].Del {
			ops[i].Val = h.rng.NormFloat64()
		}
	}
	h.script = append(h.script, fmt.Sprintf("mutate %s %v", m.id, ops))
	_, err := h.srv.Registry().Mutate(m.id, ops)
	return func() {
		ov, err := m.ov.Extend(m.base, ops)
		if err != nil {
			h.failf("model extend: %v", err)
		}
		m.ov = ov
		m.epoch++
	}, err
}

func (h *history) promote(m *histMatrix) (func(), error) {
	variants := kernels.ServableVariants()
	v := variants[h.rng.Intn(len(variants))].Name
	h.script = append(h.script, fmt.Sprintf("promote %s to %s", m.id, v))
	_, err := h.srv.Registry().Promote(context.Background(), m.id, v)
	return func() {
		format, sched, _ := kernels.PlanForVariant(v)
		m.plan = Plan{Format: format, Schedule: sched, Block: m.plan.Block, Pooled: true, Variant: v, Version: m.plan.Version + 1}
	}, err
}

func (h *history) compact(m *histMatrix) (func(), error) {
	h.script = append(h.script, "compact "+m.id)
	did, err := h.srv.Registry().Compact(m.id)
	if err == nil && did != (m.ov.NNZ() > 0) {
		h.failf("compact reported %v over an overlay of %d", did, m.ov.NNZ())
	}
	return func() {
		if m.ov.NNZ() == 0 {
			return
		}
		m.base = m.ov.Merge()
		m.ov, m.baseHash, m.compactedThrough = nil, ContentID(m.base), m.epoch
		m.plan.Version++
	}, err
}

// journaled runs one write step that is certain to append to the WAL.
func (h *history) journaled() (func(), error) {
	m := h.pick()
	switch {
	case m == nil:
		return h.register() // the registry is empty, so the upload is fresh
	case m.ov.NNZ() > 0 && h.rng.Intn(3) == 0:
		return h.compact(m)
	case h.rng.Intn(2) == 0:
		return h.promote(m)
	}
	return h.mutate(m)
}

// fault arms one durability fault and runs a step into it: the step must be
// refused as not durable, and the model does not move.
func (h *history) fault() {
	faults := []harness.Fault{
		{Point: harness.PointWALAppend, Kind: harness.FaultErr},
		{Point: harness.PointWALAppend, Kind: harness.FaultTorn},
		{Point: harness.PointWALSync, Kind: harness.FaultErr},
		{Point: harness.PointSnapshot, Kind: harness.FaultErr},
	}
	f := faults[h.rng.Intn(len(faults))]
	h.inject.Arm(f)
	h.script = append(h.script, fmt.Sprintf("arm %s/%s", f.Point, f.Kind))
	if f.Point == harness.PointSnapshot {
		h.script = append(h.script, "snapshot")
		if err := h.srv.store.Compact(); err == nil {
			h.failf("snapshot over an armed fault reported success")
		}
		return
	}
	before := len(h.model)
	if _, err := h.journaled(); !errors.Is(err, ErrNotDurable) {
		h.failf("step over an armed %s/%s fault: %v, want ErrNotDurable", f.Point, f.Kind, err)
	}
	if len(h.model) != before {
		h.failf("model grew across a refused step")
	}
}

// reopen closes the server and recovers a new one from the same directory;
// every handle's recovered state must equal the one it held at close.
func (h *history) reopen() {
	h.script = append(h.script, "close + reopen")
	before := map[string]*state{}
	for _, m := range h.model {
		before[m.id] = stateOf(h.t, h.srv, m.id)
	}
	h.srv.Close()
	h.open()
	for _, m := range h.model {
		got, ok := h.srv.Registry().Get(m.id)
		if !ok {
			h.failf("%s: acked matrix missing after recovery", m.id)
		}
		if diff := sameState(got.st.Load(), before[m.id]); diff != "" {
			h.failf("%s: recovered state differs from the pre-close one in %s:\n%+v\n%+v",
				m.id, diff, got.st.Load(), before[m.id])
		}
	}
}

// verify checks every handle against the model: versioning metadata, and a
// multiply through Registry.Prepared + overlay apply, bitwise against
// csr-serial over the model's merged matrix.
func (h *history) verify() {
	const k = 3
	reg := h.srv.Registry()
	if reg.Len() != len(h.model) {
		h.failf("registry holds %d matrices, model %d — something refused is present", reg.Len(), len(h.model))
	}
	for _, m := range h.model {
		got, ok := reg.Get(m.id)
		if !ok {
			h.failf("%s: acked matrix missing", m.id)
		}
		st := got.st.Load()
		if st.epoch != m.epoch || st.compactedThrough != m.compactedThrough || st.baseHash != m.baseHash ||
			st.hash != mutHash(m.baseHash, m.epoch, m.ov) || st.plan != m.plan {
			h.failf("%s: state %+v, model epoch %d through %d base %s plan %+v",
				m.id, st, m.epoch, m.compactedThrough, m.baseHash, m.plan)
		}
		sv, _, err := reg.Prepared(context.Background(), m.id)
		if err != nil {
			h.failf("%s: prepared: %v", m.id, err)
		}
		if sv.Epoch != m.epoch || sv.Plan != m.plan || sv.Kernel.Format() != m.plan.Format {
			h.failf("%s: serving epoch %d plan %+v on a %s kernel, model epoch %d plan %+v",
				m.id, sv.Epoch, sv.Plan, sv.Kernel.Format(), m.epoch, m.plan)
		}
		b := matrix.NewDenseRand[float64](m.base.Cols, k, h.seed+int64(len(h.script)))
		c := matrix.NewDense[float64](m.base.Rows, k)
		if err := sv.Kernel.Calculate(b, c, h.srv.params(sv.Plan, k)); err != nil {
			h.failf("%s: calculate: %v", m.id, err)
		}
		if sv.Overlay.NNZ() > 0 {
			sv.Overlay.Apply(c, b, k)
		}
		if diff, _ := c.MaxAbsDiff(multiplyRef(h.t, m.merged(), b, k)); diff != 0 {
			h.failf("%s: served panel differs from csr-serial over the model by %g", m.id, diff)
		}
	}
}

func runHistory(t *testing.T, seed int64, steps int) {
	h := &history{t: t, seed: seed, rng: rand.New(rand.NewSource(seed)), inject: harness.NewInjector(seed)}
	h.cfg = Config{
		Threads:       1,
		DataDir:       t.TempDir(),
		SnapshotEvery: -1, // snapshots are a step, compactions too
		CompactRatio:  -1,
		CompactCost:   -1,
		CacheBytes:    []int64{0, 1, 16 << 10}[h.rng.Intn(3)],
		Injector:      h.inject,
	}
	h.open()
	defer func() { h.srv.Close() }()
	for step := 0; step < steps; step++ {
		var ack func()
		var err error
		m := h.pick()
		switch p := h.rng.Intn(100); {
		case m == nil || (p < 10 && len(h.model) < 3):
			ack, err = h.register()
		case p < 45:
			ack, err = h.mutate(m)
		case p < 55:
			ack, err = h.promote(m)
		case p < 65:
			ack, err = h.compact(m)
		case p < 72:
			h.script = append(h.script, "snapshot")
			err = h.srv.store.Compact()
		case p < 85:
			h.reopen()
		default:
			h.fault()
		}
		if err != nil {
			h.failf("refused with no fault armed: %v", err)
		}
		if ack != nil {
			ack()
		}
		h.verify()
	}
}

// TestGeneratedHistories runs the checker over fixed seeds: 25 histories of
// 30 steps under -short (the race and shuffle gates), 200 otherwise.
func TestGeneratedHistories(t *testing.T) {
	histories, steps := 200, 30
	if testing.Short() {
		histories = 25
	}
	start := time.Now()
	for seed := int64(1); seed <= int64(histories); seed++ {
		runHistory(t, seed, steps)
	}
	t.Logf("%d histories x %d steps in %v (%.0f histories/s)", histories, steps,
		time.Since(start).Round(time.Millisecond), float64(histories)/time.Since(start).Seconds())
}
