package serve

import (
	"container/list"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/advisor"
	"repro/internal/core"
	"repro/internal/delta"
	"repro/internal/matrix"
	"repro/internal/obs"
)

// Registry is the server's matrix store: uploaded matrices keyed by
// content-addressed IDs, plus a bytes-bounded LRU cache of prepared formats.
// The registry owns the COO base representations permanently (they are the
// ground truth a prepared format can always be rebuilt from); the prepared
// formats — the expensive, large artifacts — live in the LRU and are evicted
// when the byte budget fills. A cache hit means a multiply pays zero
// preparation: the thesis' amortization argument (§6.2, preparation cost
// only pays off across repeated multiplies) turned into a serving policy.
type Registry struct {
	capacity int64 // prepared-cache byte budget; <= 0 means unbounded
	threads  int   // partition-warm target for prepared formats
	opts     core.Options

	// journal, when set, durably logs a record BEFORE the state it leads to
	// becomes visible; a journal failure fails the transition, so nothing is
	// ever acked that a restart would forget. It returns a commit callback
	// transact invokes once the new state is published — until then the
	// durability layer carries the record through snapshots itself. The
	// server points it at Store.Append after recovery, which is what makes
	// replay the same code with journaling off.
	journal func(*walRecord) (commit func(), err error)

	// newMu serializes first registrations: a handle with no matrix yet has
	// no writer lock of its own, so two racing uploads of one matrix meet
	// here and journal it once.
	newMu sync.Mutex

	mu       sync.Mutex
	matrices map[string]*Matrix
	order    []string // registration order, for stable listings
	entries  map[string]*list.Element
	lru      *list.List // front = most recently used; holds *cacheEntry
	used     int64

	hits      obs.Counter
	misses    obs.Counter
	prepares  obs.Counter
	evictions obs.Counter
}

// Matrix is one registered matrix: immutable identity plus the one state
// pointer everything mutable lives behind. The plan starts as servingPlan;
// Promote installs another variant, mutations extend the overlay,
// compactions re-base — each by publishing a new state. Multiplies read it
// with one atomic load, so no transition ever blocks the data path.
type Matrix struct {
	ID string
	// COO is the canonical matrix as registered. It is immutable: the
	// mutation subsystem never touches it, so lock-free readers of the
	// dimensions stay safe. After a compaction the CURRENT base lives in
	// the state — read it through CurrentBase, not this field.
	COO *matrix.COO[float64]
	// Report is the full advisor report behind the initial selection.
	Report advisor.Report
	// Source records how the matrix was uploaded. A generator spec lets
	// the WAL persist a few bytes and regenerate deterministically on
	// recovery; without one the WAL stores the canonical triplets.
	Source RegisterSource

	// st is the current state, never nil; only transact stores it.
	st atomic.Pointer[state]
	// mu is the writer lock: transact holds it from reading the current
	// state to publishing the next. The read path never takes it.
	mu sync.Mutex

	// batch is the matrix's dispatch queue: what is in flight, who waits.
	batch batcher
	// compactQueued is set while the matrix waits in the server's
	// compaction queue, so repeated triggers enqueue it once.
	compactQueued atomic.Bool

	// applyNs accumulates measured overlay-apply time since the last
	// compaction; prepNs is the last measured base preparation. Together
	// they feed the compaction cost model.
	applyNs atomic.Int64
	prepNs  atomic.Int64
}

// CurrentBase returns the matrix's current canonical base — the registered
// triplets until a compaction installs a merged matrix.
func (m *Matrix) CurrentBase() *matrix.COO[float64] { return m.st.Load().base }

// Epoch returns the matrix's mutation epoch (0 = never mutated).
func (m *Matrix) Epoch() int64 { return m.st.Load().epoch }

// ContentHash returns the served content hash for the current epoch.
func (m *Matrix) ContentHash() string { return m.st.Load().hash }

// Plan returns the matrix's current serving plan.
func (m *Matrix) Plan() Plan { return m.st.Load().plan }

// RegisterSource is the provenance of a registered matrix.
type RegisterSource struct {
	// Name is a generator-registry spec name ("" for direct uploads).
	Name string
	// Scale is the generator scale factor (normalized; never 0 when Name
	// is set).
	Scale float64
}

// cacheEntry is one prepared format in the LRU. ready closes once prepare
// finished (err set on failure), so concurrent requests for the same matrix
// share a single preparation instead of racing duplicate ones. plan is the
// plan version the format was prepared under; a promotion makes the entry
// stale and the next lookup re-prepares through the same ready-channel
// single-flight path.
type cacheEntry struct {
	id     string
	plan   Plan
	kernel core.Kernel
	bytes  int64
	ready  chan struct{}
	err    error
}

// NewRegistry builds a registry whose prepared-format cache holds at most
// capacityBytes of formatted matrices (<= 0 disables the bound). threads is
// the worker count prepared formats warm their balanced partitions for.
func NewRegistry(capacityBytes int64, threads int) *Registry {
	if threads < 1 {
		threads = 1
	}
	return &Registry{
		capacity: capacityBytes,
		threads:  threads,
		matrices: map[string]*Matrix{},
		entries:  map[string]*list.Element{},
		lru:      list.New(),
	}
}

// Canonicalize sorts m row-major and merges duplicate entries — the
// canonical form ContentID hashes and every format conversion starts from.
// Clients that verify results against a local kernel must canonicalize
// their copy the same way before preparing it. Dedup sorts first, and its
// sort scans for sortedness once, so an already sorted matrix is read once
// for the check and once for the merge.
func Canonicalize[T matrix.Float](m *matrix.COO[T]) {
	m.Dedup()
}

// ContentID returns the content-addressed ID of a canonicalized matrix:
// the first 16 hex digits of the SHA-256 over dims and the row-major
// triplet stream. Two uploads of the same matrix — whether from a file or a
// generator spec — collapse to one registry entry. The stream is each
// 64-bit word little-endian: rows, cols, nnz, then per triplet row<<32|col
// and the value's bits; it reaches the hash through a fixed buffer, in
// 4 KiB writes.
func ContentID(m *matrix.COO[float64]) string {
	h := sha256.New()
	var buf [4096]byte
	b := binary.LittleEndian.AppendUint64(buf[:0], uint64(m.Rows))
	b = binary.LittleEndian.AppendUint64(b, uint64(m.Cols))
	b = binary.LittleEndian.AppendUint64(b, uint64(m.NNZ()))
	for i := range m.Vals {
		if len(b)+16 > len(buf) {
			h.Write(b)
			b = buf[:0]
		}
		b = binary.LittleEndian.AppendUint64(b, uint64(uint32(m.RowIdx[i]))<<32|uint64(uint32(m.ColIdx[i])))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(m.Vals[i]))
	}
	h.Write(b)
	return hex.EncodeToString(h.Sum(buf[:0])[:8])
}

// Register adds a matrix to the registry, choosing its serving plan via the
// advisor, and reports whether it already existed. The registry takes
// ownership of m and canonicalizes it in place. Registration does not
// prepare the format — the first multiply (or an explicit Prepared call)
// does, so a registration burst cannot blow the cache budget.
func (r *Registry) Register(m *matrix.COO[float64]) (*Matrix, bool, error) {
	return r.RegisterSourced(m, RegisterSource{})
}

// RegisterSourced is Register with upload provenance: a generator spec lets
// the durability layer journal the spec instead of the triplets.
func (r *Registry) RegisterSourced(m *matrix.COO[float64], src RegisterSource) (*Matrix, bool, error) {
	if err := m.Validate(); err != nil {
		return nil, false, fmt.Errorf("serve: register: %w", err)
	}
	Canonicalize(m)
	id := ContentID(m)
	if got, ok := r.Get(id); ok {
		return got, true, nil
	}
	report, plan, err := advise(id, m)
	if err != nil {
		return nil, false, err
	}
	if src.Name != "" && src.Scale == 0 {
		src.Scale = 1
	}
	rec := registration(id, src, report, plan, m, id)
	entry, _, fresh, err := r.transact(id, func(*state) (*walRecord, error) { return rec, nil })
	return entry, !fresh, err
}

// ImportMutated installs a matrix under an existing serving handle — the
// cluster rebalance path for matrices whose served state has diverged from
// their original registration through mutations. base is the exporter's
// CURRENT canonical base (post-compaction it no longer hashes to the
// handle), ops the pending overlay, epoch/compactedThrough the exporter's
// version counters. wantHash is the exporter's claimed base hash ("" means
// the base is still the original registration and must hash to the handle
// itself); the import is rejected when the shipped triplets do not
// reproduce it bitwise. An existing matrix at the same or a newer epoch is
// returned as-is (idempotent re-import); an older one — a holder that
// missed mutations — has its state replaced wholesale, its stale prepared
// entry dropped.
func (r *Registry) ImportMutated(handle string, base *matrix.COO[float64], src RegisterSource, wantHash string, epoch, compactedThrough int64, ops []delta.Op) (*Matrix, bool, error) {
	if err := base.Validate(); err != nil {
		return nil, false, fmt.Errorf("serve: import %s: %w", handle, err)
	}
	Canonicalize(base)
	baseHash := ContentID(base)
	if wantHash == "" {
		wantHash = handle
	}
	if baseHash != wantHash {
		return nil, false, fmt.Errorf("serve: import %s: shipped base hashes to %s, want %s",
			handle, baseHash, wantHash)
	}
	report, plan, err := advise(handle, base)
	if err != nil {
		return nil, false, err
	}
	if src.Name != "" && src.Scale == 0 {
		src.Scale = 1
	}
	rec := registration(handle, src, report, plan, base, baseHash)
	rec.Epoch, rec.CompactEpoch = epoch, compactedThrough
	rec.MutRowIdx, rec.MutColIdx, rec.MutVals, rec.MutDel = opArrays(ops)
	entry, _, fresh, err := r.transact(handle, func(*state) (*walRecord, error) { return rec, nil })
	return entry, !fresh, err
}

// transact is the one writer of per-matrix state. Under the matrix's writer
// lock it asks build for the record that follows from the current state
// (nil: nothing to do), applies it, journals it — durability before
// visibility: a record that cannot be made durable fails the transition and
// nothing changes — and publishes the next state together with its effect
// on the prepared-format cache. It returns the matrix, the state now
// current, and whether this call changed it. Recovery calls it with the
// journal unset and a build that hands back the record it read.
func (r *Registry) transact(id string, build func(cur *state) (*walRecord, error)) (*Matrix, *state, bool, error) {
	m, _ := r.Get(id)
	if m == nil {
		r.newMu.Lock()
		defer r.newMu.Unlock()
		m, _ = r.Get(id)
	}
	var cur *state
	if m != nil {
		m.mu.Lock()
		defer m.mu.Unlock()
		cur = m.st.Load()
	}
	rec, err := build(cur)
	if rec == nil || err != nil {
		return m, cur, false, err
	}
	next, err := cur.apply(rec)
	if next == cur || err != nil {
		return m, cur, false, err
	}
	if r.journal != nil {
		// The commit callback runs after the publish below (deferred ahead
		// of the unlocks): until then a concurrent snapshot cannot see the
		// new state in the registry dump, and commit is what tells the store
		// to stop carrying the journaled record itself.
		commit, err := r.journal(rec)
		if err != nil {
			return m, cur, false, fmt.Errorf("%w: %v", ErrNotDurable, err)
		}
		defer commit()
	}

	r.mu.Lock()
	defer r.mu.Unlock()
	if m == nil {
		m = &Matrix{
			ID: id, COO: next.base, Report: rec.Report,
			Source: RegisterSource{Name: rec.Name, Scale: rec.Scale},
		}
		r.matrices[id] = m
		r.order = append(r.order, id)
	}
	m.st.Store(next)
	// Under the same lock Prepared reads the state with, so a lookup sees
	// either the old state with its format or the new one without: drop the
	// format a version bump superseded — it can never be served again, and
	// letting it age out under LRU pressure would only squeeze live entries
	// out of the budget — and install the one the writer prepared ahead.
	if el, ok := r.entries[id]; ok {
		if e := el.Value.(*cacheEntry); e.plan.Version != next.plan.Version {
			r.removeLocked(el, e)
		}
	}
	if rec.warm != nil {
		ready := make(chan struct{})
		close(ready)
		e := &cacheEntry{id: id, plan: next.plan, kernel: rec.warm, bytes: int64(rec.warm.Bytes()), ready: ready}
		r.entries[id] = r.lru.PushFront(e)
		r.used += e.bytes
		r.evictLocked(e)
	}
	return m, next, true, nil
}

// dumpRecords serializes every registered matrix in registration order —
// the snapshotter's source.
func (r *Registry) dumpRecords() []walRecord {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]walRecord, 0, len(r.order))
	for _, id := range r.order {
		m := r.matrices[id]
		out = append(out, *recordFor(m, m.st.Load()))
	}
	return out
}

// Get returns the registered matrix by ID.
func (r *Registry) Get(id string) (*Matrix, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	m, ok := r.matrices[id]
	return m, ok
}

// List returns the registered matrices in registration order, with their
// current cache residency.
func (r *Registry) List() []MatrixInfo {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]MatrixInfo, 0, len(r.order))
	for _, id := range r.order {
		out = append(out, r.infoLocked(r.matrices[id]))
	}
	return out
}

// info returns one matrix's listing entry.
func (r *Registry) info(id string) (MatrixInfo, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	m, ok := r.matrices[id]
	if !ok {
		return MatrixInfo{}, false
	}
	return r.infoLocked(m), true
}

// infoLocked describes m from one state load. Callers hold r.mu (the cache
// residency lives under it).
func (r *Registry) infoLocked(m *Matrix) MatrixInfo {
	st := m.st.Load()
	prepared := false
	if el, ok := r.entries[m.ID]; ok {
		prepared = el.Value.(*cacheEntry).plan.Version == st.plan.Version
	}
	return MatrixInfo{
		ID: m.ID, Rows: m.COO.Rows, Cols: m.COO.Cols, NNZ: st.base.NNZ(),
		Format: st.plan.Format, Schedule: st.plan.Schedule.String(), Block: st.plan.Block,
		Name: m.Source.Name, Scale: m.Source.Scale,
		Variant: st.plan.Variant, PlanVersion: st.plan.Version,
		Prepared: prepared,
		Epoch:    st.epoch, Hash: st.hash, OverlayNNZ: st.overlay.NNZ(),
	}
}

// Serving is the consistent execution state one multiply captures: the
// prepared kernel, the plan it was prepared under, and the mutation-epoch
// snapshot (base, overlay, epoch, content hash) the kernel's output must
// be interpreted against. The whole struct is immutable once returned — a
// request that captured it stays bitwise-correct for its epoch no matter
// what mutations or compactions land afterwards.
type Serving struct {
	Kernel core.Kernel
	Plan   Plan
	// Epoch and Hash version the result; the X-Spmm-Epoch and
	// X-Spmm-Content-Hash headers report them.
	Epoch int64
	Hash  string
	// Overlay is the pending delta the kernel's output must be corrected
	// by; for a clean matrix it is empty (the zero-cost fast path) and
	// carries Base's row pointer, so extending it costs O(batch).
	Overlay *delta.Overlay
	// Base is the canonical matrix the kernel was prepared from.
	Base *matrix.COO[float64]
}

// Prepared returns the matrix's serving state — prepared-format kernel,
// plan, and mutation-epoch snapshot — preparing (and caching) the kernel
// on a miss. hit reports whether the prepared format was already resident
// — the "zero preparation" steady state. Concurrent callers for the same
// matrix share one preparation; ctx bounds the wait. An entry prepared
// under an older plan version (a promotion or compaction happened) is
// treated as a miss: it is dropped and the new plan re-prepares through
// the same pending-entry single-flight path, so concurrent multiplies
// during a promotion never double-prepare and never see a half-built
// format — the returned kernel always matches the returned plan, and
// (because plan and base live in one state, and every transition that swaps
// the base bumps the plan version) always matches the returned base +
// overlay pair.
func (r *Registry) Prepared(ctx context.Context, id string) (sv Serving, hit bool, err error) {
	return r.prepared(&deadline{ctx: ctx}, id)
}

// prepared is Prepared under a deadline that is still a value: a hit whose
// format is ready returns without arming it.
func (r *Registry) prepared(d *deadline, id string) (sv Serving, hit bool, err error) {
	r.mu.Lock()
	m, ok := r.matrices[id]
	if !ok {
		r.mu.Unlock()
		return Serving{}, false, fmt.Errorf("serve: unknown matrix %q", id)
	}
	st := m.st.Load()
	plan := st.plan
	sv = Serving{Plan: plan, Epoch: st.epoch, Hash: st.hash, Overlay: st.pending(), Base: st.base}
	if el, ok := r.entries[id]; ok {
		e := el.Value.(*cacheEntry)
		if e.plan.Version == plan.Version {
			r.lru.MoveToFront(el)
			r.mu.Unlock()
			select {
			case <-e.ready:
			default:
				ctx := d.wait()
				select {
				case <-e.ready:
				case <-ctx.Done():
					return sv, false, ctx.Err()
				}
			}
			if e.err != nil {
				return sv, false, e.err
			}
			r.hits.Inc()
			sv.Kernel, sv.Plan = e.kernel, e.plan
			return sv, true, nil
		}
		// Stale plan version: drop the old entry and fall through to the
		// miss path. If its preparation is still in flight, the preparer's
		// own still-resident re-check below keeps it from charging the
		// budget for this untracked entry.
		r.removeLocked(el, e)
	}
	// Miss: insert a pending entry under the lock so concurrent callers
	// wait on it, then prepare outside the lock — from the base captured
	// under the lock, so a compaction mid-prepare cannot swap the matrix
	// under the kernel (it bumps the version and drops this entry, and
	// this request serves its own, still-consistent epoch).
	e := &cacheEntry{id: id, plan: plan, ready: make(chan struct{})}
	r.entries[id] = r.lru.PushFront(e)
	r.mu.Unlock()
	r.misses.Inc()

	e.kernel, e.err = r.prepare(m, sv.Base, plan)
	if e.err != nil {
		close(e.ready)
		r.mu.Lock()
		if el, ok := r.entries[id]; ok && el.Value.(*cacheEntry) == e {
			r.lru.Remove(el)
			delete(r.entries, id)
		}
		r.mu.Unlock()
		return sv, false, e.err
	}
	bytes := int64(e.kernel.Bytes())
	close(e.ready)

	// Account the finished entry under the lock — e.bytes is only ever
	// read by evictLocked, which also holds it — and only if the entry is
	// still resident: churn (eviction or a promotion dropping the stale
	// entry) can remove a pending entry while it prepares, and charging
	// the budget for an untracked entry would leak r.used.
	r.mu.Lock()
	if el, ok := r.entries[id]; ok && el.Value.(*cacheEntry) == e {
		e.bytes = bytes
		r.used += bytes
		r.evictLocked(e)
	}
	r.mu.Unlock()
	sv.Kernel = e.kernel
	return sv, false, nil
}

// removeLocked unlinks a cache entry, refunding its budget charge if it
// had one (a pending entry has not been charged yet). Callers hold r.mu.
func (r *Registry) removeLocked(el *list.Element, e *cacheEntry) {
	r.lru.Remove(el)
	delete(r.entries, e.id)
	if e.bytes > 0 {
		r.used -= e.bytes
		e.bytes = 0
	}
}

// Promote installs the named kernel variant as the matrix's serving plan,
// bumping the plan version, and synchronously re-prepares the new format
// through the normal Prepared path — so by the time Promote returns, the
// promoted plan is warm (single-flight shared with any concurrent
// multiplies that observed the new version first). It runs off the
// request path; multiplies in flight keep the plan + kernel pair they
// captured, which stays bitwise-correct.
func (r *Registry) Promote(ctx context.Context, id, variant string) (Plan, error) {
	_, st, _, err := r.transact(id, func(cur *state) (*walRecord, error) {
		if cur == nil {
			return nil, fmt.Errorf("serve: promote unknown matrix %q", id)
		}
		return &walRecord{Kind: walKindProfile, ID: id, Variant: variant, PlanVersion: cur.plan.Version + 1}, nil
	})
	if err != nil {
		return Plan{}, err
	}
	if _, _, err := r.Prepared(ctx, id); err != nil {
		return st.plan, fmt.Errorf("serve: promote %s to %s: warm prepare: %w", id, variant, err)
	}
	return st.plan, nil
}

// prepare builds and formats the serving kernel for base under the given
// plan, warming the balanced-partition cache for the registry's thread
// count so steady-state multiplies never compute a partition either. The
// measured duration lands in m.prepNs — the re-preparation price the
// compaction cost model weighs overlay taxes against.
func (r *Registry) prepare(m *Matrix, base *matrix.COO[float64], plan Plan) (core.Kernel, error) {
	r.prepares.Inc()
	k, err := core.New(plan.Format+"-omp", r.opts)
	if err != nil {
		return nil, err
	}
	p := core.Params{
		Reps: 1, Threads: r.threads, BlockSize: plan.Block, K: 1,
		Schedule: plan.Schedule,
	}
	start := time.Now()
	if err := k.Prepare(base, p); err != nil {
		return nil, fmt.Errorf("serve: prepare %s as %s: %w", m.ID, plan.Format, err)
	}
	m.prepNs.Store(int64(time.Since(start)))
	return k, nil
}

// Mutate applies one insert/update/delete batch to a registered matrix,
// journaling it (durability before visibility, like registrations) and
// installing the next epoch's overlay. The returned state describes the
// new epoch. Mutations to the same matrix serialize on its writer lock; the
// multiply path never blocks on it.
func (r *Registry) Mutate(id string, ops []delta.Op) (*state, error) {
	_, st, _, err := r.transact(id, func(cur *state) (*walRecord, error) {
		if cur == nil {
			return nil, fmt.Errorf("serve: mutate unknown matrix %q", id)
		}
		rec := &walRecord{Kind: walKindMutate, ID: id, Epoch: cur.epoch + 1}
		rec.MutRowIdx, rec.MutColIdx, rec.MutVals, rec.MutDel = opArrays(ops)
		return rec, nil
	})
	if err != nil {
		return nil, err
	}
	return st, nil
}

// shouldCompact evaluates the cost model against the matrix's measured
// overlay-apply accumulation and last prepare duration.
func (r *Registry) shouldCompact(m *Matrix, cm delta.CostModel) bool {
	st := m.st.Load()
	if st.overlay == nil {
		return false
	}
	return cm.ShouldCompact(st.overlay.NNZ(), st.base.NNZ(),
		time.Duration(m.applyNs.Load()).Seconds(),
		time.Duration(m.prepNs.Load()).Seconds())
}

// deltaTotals reports how many registered matrices currently carry a
// non-empty overlay and the total pending overlay entries across them —
// the /v1/stats and gauge view of outstanding mutation debt.
func (r *Registry) deltaTotals() (mutated int, overlayNNZ int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, m := range r.matrices {
		if n := m.st.Load().overlay.NNZ(); n > 0 {
			mutated++
			overlayNNZ += int64(n)
		}
	}
	return mutated, overlayNNZ
}

// Compact merges the matrix's pending overlay into a freshly prepared
// base, swapping both in atomically under a bumped plan version
// (superseded prepared entries dropped promptly, the fresh kernel
// installed warm). The merge and the preparation run under the matrix's
// writer lock: the MULTIPLY path never touches that lock — compaction runs
// off the request path — but concurrent mutation batches stall until the
// swap, which keeps the journaled boundary equal to the live epoch and makes
// crash replay reconstruct the exact pre-crash state (the compact record
// at epoch E replays as "merge everything through E", which is precisely
// what it meant when written). A crash between the journal append and the
// swap replays to bit-identical state — the merged matrix IS the base +
// overlay it replaces. Returns false when there was nothing to compact. A
// kernel-preparation failure still swaps the merged base — the bits are
// identical either way — and surfaces the error; the next multiply
// re-prepares through the normal miss path.
func (r *Registry) Compact(id string) (bool, error) {
	m, ok := r.Get(id)
	if !ok {
		return false, fmt.Errorf("serve: compact unknown matrix %q", id)
	}
	var kerr error
	_, _, did, err := r.transact(id, func(cur *state) (*walRecord, error) {
		if cur.overlay == nil {
			return nil, nil
		}
		rec := &walRecord{Kind: walKindCompact, ID: id, Epoch: cur.epoch, base: cur.overlay.Merge()}
		rec.BaseHash = ContentID(rec.base)
		rec.warm, kerr = r.prepare(m, rec.base, cur.plan)
		return rec, nil
	})
	if err != nil || !did {
		return false, err
	}
	m.applyNs.Store(0)
	if kerr != nil {
		return true, fmt.Errorf("serve: compact %s: prepare merged base: %w", id, kerr)
	}
	return true, nil
}

// evictLocked drops least-recently-used prepared formats until the cache
// fits the byte budget. keep (the entry just inserted) is never evicted:
// a single matrix larger than the whole budget must still be servable, it
// just monopolizes the cache until something else displaces it.
func (r *Registry) evictLocked(keep *cacheEntry) {
	if r.capacity <= 0 {
		return
	}
	for r.used > r.capacity {
		el := r.lru.Back()
		if el == nil {
			return
		}
		e := el.Value.(*cacheEntry)
		if e == keep {
			return
		}
		r.lru.Remove(el)
		delete(r.entries, e.id)
		r.used -= e.bytes
		r.evictions.Inc()
	}
}

// CachedIDs returns the prepared-cache residents, most recently used first
// — the observable LRU order the eviction tests pin.
func (r *Registry) CachedIDs() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, 0, r.lru.Len())
	for el := r.lru.Front(); el != nil; el = el.Next() {
		out = append(out, el.Value.(*cacheEntry).id)
	}
	return out
}

// Stats snapshots the cache counters.
func (r *Registry) Stats() CacheStats {
	r.mu.Lock()
	entries, used := r.lru.Len(), r.used
	r.mu.Unlock()
	return CacheStats{
		Entries:       entries,
		Bytes:         used,
		CapacityBytes: r.capacity,
		Hits:          r.hits.Value(),
		Misses:        r.misses.Value(),
		Prepares:      r.prepares.Value(),
		Evictions:     r.evictions.Value(),
	}
}

// Len reports the number of registered matrices.
func (r *Registry) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.matrices)
}
