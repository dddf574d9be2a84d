package serve

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"sync"
	"testing"

	"repro/internal/gen"
	"repro/internal/matrix"
)

// testMatrix builds a small deterministic random matrix.
func testMatrix(tb testing.TB, rows, cols int, density float64, seed int64) *matrix.COO[float64] {
	tb.Helper()
	m, err := gen.UniformRandom[float64](rows, cols, density, seed)
	if err != nil {
		tb.Fatal(err)
	}
	return m
}

func TestContentIDCanonical(t *testing.T) {
	a := testMatrix(t, 50, 40, 0.05, 1)
	b := a.Clone()
	// Shuffle b's triplet order: the ID must not depend on it.
	for i := range b.Vals {
		j := (i * 7) % len(b.Vals)
		b.RowIdx[i], b.RowIdx[j] = b.RowIdx[j], b.RowIdx[i]
		b.ColIdx[i], b.ColIdx[j] = b.ColIdx[j], b.ColIdx[i]
		b.Vals[i], b.Vals[j] = b.Vals[j], b.Vals[i]
	}
	Canonicalize(a)
	Canonicalize(b)
	if ida, idb := ContentID(a), ContentID(b); ida != idb {
		t.Fatalf("triplet order changed the content ID: %s vs %s", ida, idb)
	}
	c := testMatrix(t, 50, 40, 0.05, 2)
	Canonicalize(c)
	if ContentID(a) == ContentID(c) {
		t.Fatal("different matrices collided on one content ID")
	}
}

// TestContentIDStreamsEveryTriplet checks the buffered hash against the
// stream ContentID documents, written one 64-bit word at a time, at
// triplet counts around its buffer's edges (4 KiB holds 254 triplets after
// the 24-byte header, then 256 per refill).
func TestContentIDStreamsEveryTriplet(t *testing.T) {
	want := func(m *matrix.COO[float64]) string {
		h := sha256.New()
		var w [8]byte
		put := func(v uint64) {
			binary.LittleEndian.PutUint64(w[:], v)
			h.Write(w[:])
		}
		put(uint64(m.Rows))
		put(uint64(m.Cols))
		put(uint64(m.NNZ()))
		for i := range m.Vals {
			put(uint64(uint32(m.RowIdx[i]))<<32 | uint64(uint32(m.ColIdx[i])))
			put(math.Float64bits(m.Vals[i]))
		}
		return hex.EncodeToString(h.Sum(nil))[:16]
	}
	for _, n := range []int{0, 1, 253, 254, 255, 256, 509, 510, 511, 766, 1000} {
		m := matrix.NewCOO[float64](n+1, 3, n)
		for i := 0; i < n; i++ {
			m.Append(int32(i), int32(i%3), float64(i)-0.5)
		}
		if got, w := ContentID(m), want(m); got != w {
			t.Errorf("%d triplets: ContentID %s, want %s", n, got, w)
		}
	}
}

func TestRegisterIdempotent(t *testing.T) {
	r := NewRegistry(0, 2)
	m1, existed, err := r.Register(testMatrix(t, 60, 60, 0.04, 7))
	if err != nil || existed {
		t.Fatalf("first register: existed=%v err=%v", existed, err)
	}
	m2, existed, err := r.Register(testMatrix(t, 60, 60, 0.04, 7))
	if err != nil || !existed {
		t.Fatalf("second register: existed=%v err=%v", existed, err)
	}
	if m1 != m2 {
		t.Fatal("re-registering the same content returned a different entry")
	}
	if r.Len() != 1 {
		t.Fatalf("registry holds %d matrices, want 1", r.Len())
	}
}

// TestCacheBytesAccounting pins that the cache's byte gauge is exactly the
// sum of the resident prepared formats' footprints.
func TestCacheBytesAccounting(t *testing.T) {
	r := NewRegistry(0, 2)
	ctx := context.Background()
	var want int64
	for seed := int64(1); seed <= 3; seed++ {
		m, _, err := r.Register(testMatrix(t, 80, 80, 0.03, seed))
		if err != nil {
			t.Fatal(err)
		}
		sv, hit, err := r.Prepared(ctx, m.ID)
		if err != nil {
			t.Fatal(err)
		}
		if hit {
			t.Fatalf("first Prepared of %s reported a cache hit", m.ID)
		}
		want += int64(sv.Kernel.Bytes())
	}
	st := r.Stats()
	if st.Entries != 3 {
		t.Fatalf("cache entries = %d, want 3", st.Entries)
	}
	if st.Bytes != want {
		t.Fatalf("cache bytes = %d, want %d (sum of prepared footprints)", st.Bytes, want)
	}
	if st.Prepares != 3 || st.Misses != 3 || st.Hits != 0 {
		t.Fatalf("counters = %+v, want 3 prepares, 3 misses, 0 hits", st)
	}
}

// TestLRUEvictionOrder pins the eviction policy: least recently *used*
// leaves first, and a hit refreshes recency.
func TestLRUEvictionOrder(t *testing.T) {
	// Measure one prepared footprint first, then budget for two.
	probe := NewRegistry(0, 2)
	pm, _, err := probe.Register(testMatrix(t, 100, 100, 0.03, 1))
	if err != nil {
		t.Fatal(err)
	}
	psv, _, err := probe.Prepared(context.Background(), pm.ID)
	if err != nil {
		t.Fatal(err)
	}
	one := int64(psv.Kernel.Bytes())

	r := NewRegistry(2*one+one/2, 2)
	ctx := context.Background()
	ids := make([]string, 3)
	for i, seed := range []int64{1, 2, 3} {
		m, _, err := r.Register(testMatrix(t, 100, 100, 0.03, seed))
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = m.ID
	}
	mustPrepare := func(id string, wantHit bool) {
		t.Helper()
		if _, hit, err := r.Prepared(ctx, id); err != nil || hit != wantHit {
			t.Fatalf("Prepared(%s): hit=%v err=%v, want hit=%v", id, hit, err, wantHit)
		}
	}
	mustPrepare(ids[0], false) // cache: [0]
	mustPrepare(ids[1], false) // cache: [1 0]
	mustPrepare(ids[0], true)  // refresh 0 → cache: [0 1]
	mustPrepare(ids[2], false) // budget forces eviction of 1 → [2 0]

	got := r.CachedIDs()
	if len(got) != 2 || got[0] != ids[2] || got[1] != ids[0] {
		t.Fatalf("cache residents (MRU first) = %v, want [%s %s] — LRU must evict the least recently used, not the oldest insert", got, ids[2], ids[0])
	}
	if st := r.Stats(); st.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", st.Evictions)
	}
	// The evicted matrix re-prepares on demand (a miss, not an error).
	mustPrepare(ids[1], false)
}

// TestSecondMultiplyZeroPrepare is the amortization contract: once a
// matrix's format is resident, further multiplies perform zero preparation.
func TestSecondMultiplyZeroPrepare(t *testing.T) {
	r := NewRegistry(0, 2)
	ctx := context.Background()
	m, _, err := r.Register(testMatrix(t, 70, 50, 0.05, 11))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.Prepared(ctx, m.ID); err != nil {
		t.Fatal(err)
	}
	base := r.Stats().Prepares
	for i := 0; i < 5; i++ {
		_, hit, err := r.Prepared(ctx, m.ID)
		if err != nil {
			t.Fatal(err)
		}
		if !hit {
			t.Fatalf("multiply %d after warm-up missed the cache", i+2)
		}
	}
	if got := r.Stats().Prepares; got != base {
		t.Fatalf("prepare counter advanced from %d to %d on cached multiplies", base, got)
	}
}

// TestConcurrentRegisterEvict hammers register + prepare + evict from many
// goroutines under a budget that fits roughly one prepared format; run with
// -race this is the cache's data-race audit.
func TestConcurrentRegisterEvict(t *testing.T) {
	probe := NewRegistry(0, 2)
	pm, _, _ := probe.Register(testMatrix(t, 90, 90, 0.03, 1))
	psv, _, err := probe.Prepared(context.Background(), pm.ID)
	if err != nil {
		t.Fatal(err)
	}
	one := int64(psv.Kernel.Bytes())
	r := NewRegistry(one+one/3, 2)

	const workers = 8
	const iters = 30
	seeds := []int64{1, 2, 3, 4}
	ctx := context.Background()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				seed := seeds[(w+i)%len(seeds)]
				m, _, err := r.Register(testMatrix(t, 90, 90, 0.03, seed))
				if err != nil {
					t.Error(err)
					return
				}
				sv, _, err := r.Prepared(ctx, m.ID)
				if err != nil {
					t.Error(err)
					return
				}
				if sv.Kernel == nil || sv.Kernel.Bytes() <= 0 {
					t.Error("Prepared returned an unusable kernel")
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if r.Len() != len(seeds) {
		t.Fatalf("registry holds %d matrices, want %d", r.Len(), len(seeds))
	}
	st := r.Stats()
	if st.Entries < 1 {
		t.Fatalf("cache emptied entirely: %+v", st)
	}
	if st.Bytes < 0 {
		t.Fatalf("negative cache bytes after churn: %+v", st)
	}
	if st.Hits+st.Misses != workers*iters {
		t.Fatalf("hits+misses = %d, want %d", st.Hits+st.Misses, workers*iters)
	}
}

// altVariant picks a servable pool variant different from current, so a
// test promotion always changes the plan. Block-free formats only — the
// registered plan's Block is meaningful just for bcsr/bell.
func altVariant(current string) string {
	if current != "ell/opts-pool" {
		return "ell/opts-pool"
	}
	return "csr/opts-pool"
}

// TestPromoteReprepare pins the promotion contract on the registry: the
// promoted plan bumps the version, the stale cached format is replaced
// through the normal miss path (exactly one extra prepare, synchronous
// warm), the byte gauge tracks only the new resident format, and
// subsequent lookups are version-matched hits.
func TestPromoteReprepare(t *testing.T) {
	r := NewRegistry(0, 2)
	ctx := context.Background()
	m, _, err := r.Register(testMatrix(t, 80, 80, 0.03, 5))
	if err != nil {
		t.Fatal(err)
	}

	sv0, hit, err := r.Prepared(ctx, m.ID)
	if err != nil || hit {
		t.Fatalf("first Prepared: hit=%v err=%v", hit, err)
	}
	k0, p0 := sv0.Kernel, sv0.Plan
	if p0.Version != 1 || k0.Format() != p0.Format {
		t.Fatalf("initial plan %+v served by a %s kernel", p0, k0.Format())
	}
	if got := r.Stats().Prepares; got != 1 {
		t.Fatalf("prepares = %d, want 1", got)
	}

	tgt := altVariant(p0.Variant)
	plan, err := r.Promote(ctx, m.ID, tgt)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Variant != tgt || plan.Version != 2 {
		t.Fatalf("promoted plan %+v, want %s v2", plan, tgt)
	}
	// Promote warms synchronously: exactly one more prepare, and the stale
	// format's bytes are released.
	if got := r.Stats().Prepares; got != 2 {
		t.Fatalf("prepares after promote = %d, want 2 (one warm re-prepare)", got)
	}

	sv1, hit, err := r.Prepared(ctx, m.ID)
	if err != nil || !hit {
		t.Fatalf("post-promotion Prepared: hit=%v err=%v — warm promote must leave a resident format", hit, err)
	}
	k1, p1 := sv1.Kernel, sv1.Plan
	if p1 != plan {
		t.Fatalf("served plan %+v != promoted plan %+v", p1, plan)
	}
	if k1.Format() != p1.Format {
		t.Fatalf("kernel format %s does not match plan format %s", k1.Format(), p1.Format)
	}
	if got := r.Stats().Prepares; got != 2 {
		t.Fatalf("version-matched hit re-prepared: prepares = %d", got)
	}
	if got, want := r.Stats().Bytes, int64(k1.Bytes()); got != want {
		t.Fatalf("cache bytes = %d, want %d — the stale format's bytes must be released on promotion", got, want)
	}

	// An unservable variant is refused without touching the plan.
	if _, err := r.Promote(ctx, m.ID, "no-such/variant"); err == nil {
		t.Fatal("promoting an unknown variant succeeded")
	}
	if got := m.Plan(); got != plan {
		t.Fatalf("failed promotion changed the plan: %+v", got)
	}
}

// TestPromoteChurn hammers Prepared from many readers while a promoter
// cycles the plan — under -race this is the audit of the mutable-plan
// cache path. Every lookup must return a kernel whose format matches the
// plan it was returned with (never a half-built or mismatched format), and
// the byte gauge must end exactly equal to the resident footprints.
func TestPromoteChurn(t *testing.T) {
	r := NewRegistry(0, 2)
	ctx := context.Background()
	ids := make([]string, 2)
	for i, seed := range []int64{3, 4} {
		m, _, err := r.Register(testMatrix(t, 80, 80, 0.03, seed))
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = m.ID
	}

	cycle := []string{"csr/opts-pool", "ell/opts-pool", "coo/opts-pool", "sellcs/opts-balanced-pool"}
	stop := make(chan struct{})
	var wg sync.WaitGroup

	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stop)
		for i := 0; i < 24; i++ {
			for _, id := range ids {
				if _, err := r.Promote(ctx, id, cycle[i%len(cycle)]); err != nil {
					t.Errorf("promote %s to %s: %v", id, cycle[i%len(cycle)], err)
					return
				}
			}
		}
	}()

	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				id := ids[(w+i)%len(ids)]
				sv, _, err := r.Prepared(ctx, id)
				if err != nil {
					t.Errorf("Prepared(%s): %v", id, err)
					return
				}
				if sv.Kernel.Format() != sv.Plan.Format {
					t.Errorf("Prepared(%s) returned a %s kernel for plan %+v", id, sv.Kernel.Format(), sv.Plan)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	// Quiescent accounting: the gauge equals the sum of resident bytes.
	r.mu.Lock()
	var sum int64
	for _, el := range r.entries {
		sum += el.Value.(*cacheEntry).bytes
	}
	used := r.used
	r.mu.Unlock()
	if used != sum {
		t.Fatalf("cache gauge %d != sum of resident entries %d after promotion churn", used, sum)
	}

	// Every matrix still serves a plan-consistent kernel.
	for _, id := range ids {
		sv, _, err := r.Prepared(ctx, id)
		if err != nil || sv.Kernel.Format() != sv.Plan.Format {
			t.Fatalf("post-churn Prepared(%s): format %s, plan %+v, err %v", id, sv.Kernel.Format(), sv.Plan, err)
		}
	}
}
