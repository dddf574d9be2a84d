package serve

import (
	"fmt"

	"repro/internal/advisor"
	"repro/internal/delta"
	"repro/internal/gen"
	"repro/internal/kernels"
	"repro/internal/matrix"
)

// A served matrix is one immutable state behind one atomic pointer, changed
// by one function. The lifecycle — registered → mutated@eN → compacted →
// promoted@vN — is the sequence of walRecords applied to it: the live write
// path builds a record and hands it to Registry.transact (lock → apply →
// journal → publish), recovery hands transact the records it read back, and
// both run the same apply. Live and replayed state cannot diverge because
// there is no second implementation to diverge from.

// state is one immutable per-matrix snapshot. Multiplies capture the whole
// state in one atomic load, so a concurrent mutation, compaction or
// promotion can never tear the (plan, base, overlay, epoch) tuple a request
// executes under.
type state struct {
	// plan is the serving plan; its Version keys the prepared-format cache
	// and is bumped by every transition that invalidates a prepared format
	// (promotion, compaction, replacement by an import).
	plan Plan
	// epoch counts acked mutation batches over the matrix's lifetime; it
	// is NOT bumped by compactions, which only move entries from overlay
	// to base without changing a result bit.
	epoch int64
	// compactedThrough is the epoch boundary of the last compaction:
	// mutations at or below it are merged into base.
	compactedThrough int64
	// baseHash is ContentID(base); equals the registry ID until the first
	// compaction replaces the base with a merged matrix.
	baseHash string
	// hash is the served content hash: baseHash while clean, else
	// baseHash+"+e<epoch>" — every mutation epoch re-versions it and a
	// compaction restores the canonical post-merge hash.
	hash string
	base *matrix.COO[float64]
	// overlay is the pending delta; nil when clean, so never-mutated
	// matrices pay one nil check on the multiply path.
	overlay *delta.Overlay
}

// Plan is one immutable serving-plan version: which kernel variant every
// multiply against the matrix dispatches on. Promotions install a new Plan
// with a bumped Version; the prepared-format cache keys on the version so
// a stale format is never served after a promotion.
type Plan struct {
	// Format is the sparse format multiplies dispatch on.
	Format string
	// Schedule is the work-partition choice.
	Schedule kernels.Schedule
	// Block is the BCSR block edge used when Format is "bcsr".
	Block int
	// Pooled is always true: every dispatch runs on the server's worker
	// pool. The field stays for readers that still check it.
	Pooled bool
	// Variant is the kernels registry name of the executing arm — the
	// identity the tuner races and the X-Spmm-Variant header reports.
	Variant string
	// Version increments on every promotion and compaction; 1 is the
	// advisor's plan.
	Version int64
}

// mutHash derives the served content hash: the canonical base hash while
// the overlay is empty, re-versioned by epoch while mutations are pending.
func mutHash(baseHash string, epoch int64, ov *delta.Overlay) string {
	if ov.NNZ() == 0 {
		return baseHash
	}
	return fmt.Sprintf("%s+e%d", baseHash, epoch)
}

// apply is the transition function: the state rec leads to from cur (nil
// for a handle with no matrix yet). It is pure — no I/O, no clock, cur is
// never touched — and idempotent: a record at or below what cur already
// reflects returns cur itself, which is how replay skips what a snapshot
// folded in and how the live path reports "nothing changed".
//
//	kind      precondition                        effect                          skipped when
//	""        base decodes and hashes to           install plan, base, overlay,    rec.Epoch <= cur.epoch
//	          BaseHash (else ID); same dims as     epoch, compactedThrough; plan   (newest epoch wins per
//	          cur; overlay arrays well-formed      version outruns cur's           handle, a tie keeps cur)
//	mutate    rec.Epoch == cur.epoch+1; ops        overlay extended, epoch+1,      rec.Epoch <= cur.epoch
//	          well-formed and in range             hash re-versioned
//	compact   rec.Epoch == cur.epoch; merged       base = merge, overlay cleared,  rec.Epoch <=
//	          base hashes to BaseHash              plan version+1                  cur.compactedThrough
//	profile   variant is servable                  plan = variant at the           version <=
//	                                               journaled version               cur.plan.Version
func (cur *state) apply(rec *walRecord) (*state, error) {
	if cur == nil && rec.Kind != "" {
		return nil, fmt.Errorf("serve: %s record for unknown matrix %q", rec.Kind, rec.ID)
	}
	switch rec.Kind {
	case "":
		if cur != nil && rec.Epoch <= cur.epoch {
			return cur, nil
		}
		base, baseHash, err := rec.decodeBase()
		if err != nil {
			return nil, err
		}
		if cur != nil && (base.Rows != cur.base.Rows || base.Cols != cur.base.Cols) {
			return nil, fmt.Errorf("serve: register %s: %dx%d base under a %dx%d handle",
				rec.ID, base.Rows, base.Cols, cur.base.Rows, cur.base.Cols)
		}
		ops, err := deltaOps(rec.MutRowIdx, rec.MutColIdx, rec.MutVals, rec.MutDel)
		if err != nil {
			return nil, fmt.Errorf("serve: register %s: %w", rec.ID, err)
		}
		var ov *delta.Overlay
		if len(ops) > 0 {
			if ov, err = ov.Extend(base, ops); err != nil {
				return nil, fmt.Errorf("serve: register %s: %w", rec.ID, err)
			}
		}
		plan := rec.plan()
		if cur != nil && plan.Version <= cur.plan.Version {
			// Outrun any version the replaced copy reached, so a format
			// prepared for it can never be mistaken for one matching this
			// state.
			plan.Version = cur.plan.Version + 1
		}
		return newState(plan, rec.Epoch, rec.CompactEpoch, baseHash, base, ov), nil

	case walKindMutate:
		if rec.Epoch <= cur.epoch {
			return cur, nil
		}
		if rec.Epoch != cur.epoch+1 {
			return nil, fmt.Errorf("serve: mutate %s: epoch %d after epoch %d (gap)", rec.ID, rec.Epoch, cur.epoch)
		}
		ops, err := deltaOps(rec.MutRowIdx, rec.MutColIdx, rec.MutVals, rec.MutDel)
		if err != nil {
			return nil, fmt.Errorf("serve: mutate %s: %w", rec.ID, err)
		}
		ov, err := cur.overlay.Extend(cur.base, ops)
		if err != nil {
			return nil, fmt.Errorf("serve: mutate %s: %w", rec.ID, err)
		}
		return newState(cur.plan, rec.Epoch, cur.compactedThrough, cur.baseHash, cur.base, ov), nil

	case walKindCompact:
		if rec.Epoch <= cur.compactedThrough {
			return cur, nil
		}
		if rec.Epoch != cur.epoch {
			// Compactions journal under the writer lock, so in log order the
			// boundary always equals the epoch of the mutations applied so far.
			return nil, fmt.Errorf("serve: compact %s: boundary %d but matrix is at epoch %d", rec.ID, rec.Epoch, cur.epoch)
		}
		// The merge is deterministic, so the journal carries only the
		// boundary and the expected hash; the live path attaches the merged
		// base it already computed.
		merged, hash := rec.base, rec.BaseHash
		if merged == nil {
			if merged = cur.overlay.Merge(); merged == nil {
				merged = cur.base
			}
			hash = ContentID(merged)
			if rec.BaseHash != "" && hash != rec.BaseHash {
				return nil, fmt.Errorf("serve: compact %s: merge hashes to %s, want %s", rec.ID, hash, rec.BaseHash)
			}
		}
		plan := cur.plan
		plan.Version++
		return newState(plan, cur.epoch, rec.Epoch, hash, merged, nil), nil

	case walKindProfile:
		// A promotion: Registry.Promote journals the variant and version at
		// the top level; a tuner profile (the only form older logs hold)
		// names them as its incumbent.
		variant, version := rec.Variant, rec.PlanVersion
		if rec.Profile != nil {
			variant, version = rec.Profile.Incumbent, rec.Profile.PlanVersion
		}
		if version <= cur.plan.Version {
			return cur, nil
		}
		format, sched, ok := kernels.PlanForVariant(variant)
		if !ok {
			return nil, fmt.Errorf("serve: promote %s: %q is not a servable variant", rec.ID, variant)
		}
		// The plan's coordinates spell the canonical name, so a promotion
		// journaled under a legacy spelling serves and reports the pooled one.
		next := *cur
		next.plan = Plan{Format: format, Schedule: sched, Block: cur.plan.Block, Pooled: true,
			Variant: kernels.ServingVariant(format, sched), Version: version}
		return &next, nil
	}
	return nil, fmt.Errorf("serve: record %d for %s has unknown kind %q", rec.Seq, rec.ID, rec.Kind)
}

// newState assembles a state, deriving the served hash. An empty overlay is
// stored as nil so a state has one representation however it was reached.
func newState(plan Plan, epoch, compactedThrough int64, baseHash string, base *matrix.COO[float64], ov *delta.Overlay) *state {
	if ov.NNZ() == 0 {
		ov = nil
	}
	return &state{
		plan: plan, epoch: epoch, compactedThrough: compactedThrough,
		baseHash: baseHash, hash: mutHash(baseHash, epoch, ov), base: base, overlay: ov,
	}
}

// decodeBase returns the canonical base a registration record installs and
// the hash it answers to: the matrix the live path attached, else the
// generator spec regenerated or the stored triplets adopted — and re-verified,
// since the generator must reproduce the exact matrix that was acked.
func (rec *walRecord) decodeBase() (*matrix.COO[float64], string, error) {
	// A compacted matrix's base no longer hashes to its registry ID — the
	// record carries the merged base's own hash to verify against instead.
	want := rec.ID
	if rec.BaseHash != "" {
		want = rec.BaseHash
	}
	if rec.base != nil {
		return rec.base, want, nil
	}
	var coo *matrix.COO[float64]
	if rec.Name != "" {
		m, _, err := gen.GenerateScaled(rec.Name, rec.Scale)
		if err != nil {
			return nil, "", fmt.Errorf("serve: register %s: regenerate %q: %w", rec.ID, rec.Name, err)
		}
		Canonicalize(m)
		coo = m
	} else {
		coo = &matrix.COO[float64]{
			Rows: rec.Rows, Cols: rec.Cols,
			RowIdx: rec.RowIdx, ColIdx: rec.ColIdx, Vals: rec.Vals,
		}
		if err := coo.Validate(); err != nil {
			return nil, "", fmt.Errorf("serve: register %s: %w", rec.ID, err)
		}
	}
	if got := ContentID(coo); got != want {
		return nil, "", fmt.Errorf("serve: register %s: rebuilt matrix hashes to %s, want %s", rec.ID, got, want)
	}
	return coo, want, nil
}

// plan is the serving plan a registration record journals — recovery reuses
// it rather than re-running the advisor.
func (rec *walRecord) plan() Plan {
	sched := kernels.ScheduleStatic
	if rec.Schedule == kernels.ScheduleBalanced.String() {
		sched = kernels.ScheduleBalanced
	}
	plan := Plan{
		Format: rec.Format, Schedule: sched, Block: rec.Block,
		Pooled: true, Variant: rec.Variant, Version: rec.PlanVersion,
	}
	if plan.Variant == "" {
		// Pre-tuner record: synthesize the arm name its plan executes.
		plan.Variant = kernels.ServingVariant(plan.Format, sched)
	} else if v, ok := kernels.ParseVariant(plan.Variant); ok {
		// A legacy spelling recovers as the pooled point that runs it.
		plan.Variant = v.Name
	}
	if plan.Version < 1 {
		plan.Version = 1
	}
	return plan
}

// advise runs the advisor over m and turns its pick into version 1 of a
// serving plan. It costs a pass over the nonzeros, so callers run it outside
// every lock.
func advise(id string, m *matrix.COO[float64]) (advisor.Report, Plan, error) {
	f, err := advisor.Extract(m)
	if err != nil {
		return advisor.Report{}, Plan{}, err
	}
	report := advisor.NewReport(id, f, []advisor.Environment{advisor.ParallelCPU})
	best := report.Best(advisor.ParallelCPU)
	sched := kernels.ScheduleStatic
	if report.Schedule.Format == "balanced" {
		sched = kernels.ScheduleBalanced
	}
	return report, Plan{
		Format:   best.Format,
		Schedule: sched,
		Block:    4,
		Pooled:   true,
		Variant:  kernels.ServingVariant(best.Format, sched),
		Version:  1,
	}, nil
}

// registration builds the record that installs base (hashing to baseHash)
// under id with the given plan. The base rides along for the live apply; a
// generator spec stands in for the triplets on disk while it can.
func registration(id string, src RegisterSource, report advisor.Report, plan Plan, base *matrix.COO[float64], baseHash string) *walRecord {
	rec := &walRecord{
		ID:          id,
		Rows:        base.Rows,
		Cols:        base.Cols,
		Format:      plan.Format,
		Schedule:    plan.Schedule.String(),
		Block:       plan.Block,
		Variant:     plan.Variant,
		PlanVersion: plan.Version,
		Report:      report,
		base:        base,
	}
	// A generator spec only regenerates the ORIGINAL base; once a
	// compaction has merged mutations into it, the record must carry the
	// current triplets (and their hash, since they no longer hash to the
	// registry ID).
	if src.Name != "" && baseHash == id {
		rec.Name, rec.Scale = src.Name, src.Scale
	} else {
		rec.RowIdx, rec.ColIdx, rec.Vals = base.RowIdx, base.ColIdx, base.Vals
	}
	if baseHash != id {
		rec.BaseHash = baseHash
	}
	return rec
}

// recordFor serializes a matrix at state st into the registration record
// that recovers it — plan, epoch, compaction boundary and pending overlay
// included, so a snapshot taken after a promotion or a mutation recovers
// straight into that state.
func recordFor(m *Matrix, st *state) *walRecord {
	rec := registration(m.ID, m.Source, m.Report, st.plan, st.base, st.baseHash)
	if st.epoch > 0 {
		rec.Epoch = st.epoch
		rec.CompactEpoch = st.compactedThrough
		if ov := st.overlay; ov != nil {
			rec.MutRowIdx, rec.MutColIdx, rec.MutVals, rec.MutDel = ov.RowIdx, ov.ColIdx, ov.Vals, ov.Del
		}
	}
	return rec
}

// deltaOps converts parallel mutation arrays (wire or journal form) into
// ops, validating that the arrays agree in length; a nil del means no
// deletes.
func deltaOps(rows, cols []int32, vals []float64, del []bool) ([]delta.Op, error) {
	if len(cols) != len(rows) || len(vals) != len(rows) || (del != nil && len(del) != len(rows)) {
		return nil, fmt.Errorf("serve: ragged mutation arrays (%d/%d/%d/%d)",
			len(rows), len(cols), len(vals), len(del))
	}
	ops := make([]delta.Op, len(rows))
	for i := range ops {
		ops[i] = delta.Op{Row: rows[i], Col: cols[i], Val: vals[i]}
		if del != nil {
			ops[i].Del = del[i]
		}
	}
	return ops, nil
}

// opArrays is deltaOps' inverse: ops as the parallel arrays a record holds.
func opArrays(ops []delta.Op) (rows, cols []int32, vals []float64, del []bool) {
	rows, cols = make([]int32, len(ops)), make([]int32, len(ops))
	vals, del = make([]float64, len(ops)), make([]bool, len(ops))
	for i, op := range ops {
		rows[i], cols[i], vals[i], del[i] = op.Row, op.Col, op.Val, op.Del
	}
	return rows, cols, vals, del
}
