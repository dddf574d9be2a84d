package serve

import (
	"bytes"
	"errors"
	"io"
	"math"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/matrix"
)

// leased copies d into a pooled panel, the way a request's B arrives.
func leased(d *matrix.Dense[float64]) *Lease {
	l := leasePanel(d.Rows, d.Cols)
	for i := 0; i < d.Rows; i++ {
		copy(l.panel.Row(i), d.Row(i))
	}
	return l
}

// mustPanic runs f and fails unless it panics.
func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s did not panic", what)
		}
	}()
	f()
}

// TestLeaseLifecycle: shapes and byte views, power-of-two classes with the
// oversize fall-through, one recycle on the last of several releases, a pool
// hit afterwards, poisoned storage in a -race build, and loud misuse.
func TestLeaseLifecycle(t *testing.T) {
	l := leasePanel(3, 5)
	if d := &l.panel; d.Rows != 3 || d.Cols != 5 || d.Stride != 5 || len(d.Data) != 15 || cap(d.Data) != 512 {
		t.Fatalf("leasePanel(3, 5) = %dx%d stride %d, len %d cap %d; want the head of a 512-float class",
			d.Rows, d.Cols, d.Stride, len(d.Data), cap(d.Data))
	}
	if len(l.Bytes()) != 120 {
		t.Fatalf("a 3x5 panel is %d bytes, want 120", len(l.Bytes()))
	}
	l.Release()
	for _, tc := range []struct{ bytes, capFloats int }{
		{0, 512}, {13, 512}, {4096, 512}, {4097, 1024}, {104960, 16384}, {1 << 20, 1 << 17},
	} {
		b := LeaseBytes(tc.bytes)
		if len(b.Bytes()) != tc.bytes || cap(b.panel.Data) != tc.capFloats {
			t.Fatalf("LeaseBytes(%d): %d bytes over %d floats, want %d over %d",
				tc.bytes, len(b.Bytes()), cap(b.panel.Data), tc.bytes, tc.capFloats)
		}
		b.Release()
	}
	(*Lease)(nil).Release()

	// Beyond the largest class: an exact make, never pooled.
	recycled := panels.recycled.Value()
	big := LeaseBytes(32<<20 + 8)
	if big.class != -1 || cap(big.panel.Data) != 4<<20+1 {
		t.Fatalf("a lease beyond 32 MiB: class %d, %d floats; want unpooled and exact", big.class, cap(big.panel.Data))
	}
	big.Release()
	if got := panels.recycled.Value(); got != recycled {
		t.Fatalf("an unpooled lease recycled %d bytes", got-recycled)
	}

	// Two holders: only the second release recycles, and it recycles the class.
	l = leasePanel(40, 40) // 1600 floats: the 2048 class
	stale := l.panel.Data
	stale[7] = 42
	l.retain()
	l.Release()
	if got := panels.recycled.Value(); got != recycled || stale[7] != 42 {
		t.Fatalf("releasing one of two references recycled %d bytes (stale[7] = %v)", got-recycled, stale[7])
	}
	l.Release()
	if got := panels.recycled.Value() - recycled; got != 2048*8 {
		t.Fatalf("the last release recycled %d bytes, want the 16384-byte class", got)
	}
	if raceBuild {
		for i, v := range stale[:cap(stale)] {
			if math.Float64bits(v) != poisonBits {
				t.Fatalf("race build: released storage[%d] = %#x, want the poison", i, math.Float64bits(v))
			}
		}
		if v := math.Float64frombits(poisonBits); v == v {
			t.Fatal("the poison is not a NaN")
		}
	}
	mustPanic(t, "a release beyond the last", l.Release)
	mustPanic(t, "a retain after the last release", l.retain)

	// The class refills from what was released (sync.Pool drops some Puts
	// under -race, hence the loop).
	hits := panels.hits.Value()
	for i := 0; i < 100 && panels.hits.Value() == hits; i++ {
		leasePanel(40, 40).Release()
	}
	if panels.hits.Value() == hits {
		t.Fatal("100 lease/release rounds of one class never hit the pool")
	}
}

// TestLeaseBody: the request body net/http gets holds its own reference,
// released by the first Close only; a Read after Close fails without touching
// the storage; GetBody replays the whole body under a further reference; and
// an empty or nil lease leaves the request bodiless.
func TestLeaseBody(t *testing.T) {
	l := LeaseBytes(10000)
	for i := range l.Bytes() {
		l.Bytes()[i] = byte(i)
	}
	want := bytes.Clone(l.Bytes())
	req, err := http.NewRequest(http.MethodPost, "http://unused.invalid/", nil)
	if err != nil {
		t.Fatal(err)
	}
	l.SetBody(req)
	if req.ContentLength != 10000 || req.GetBody == nil || l.refs.Load() != 2 {
		t.Fatalf("SetBody: ContentLength %d, GetBody set %v, refs %d", req.ContentLength, req.GetBody != nil, l.refs.Load())
	}
	head := make([]byte, 100)
	if _, err := io.ReadFull(req.Body, head); err != nil || !bytes.Equal(head, want[:100]) {
		t.Fatalf("first read: %v", err)
	}
	replay, err := req.GetBody()
	if err != nil || l.refs.Load() != 3 {
		t.Fatalf("GetBody: err %v, refs %d", err, l.refs.Load())
	}
	req.Body.Close()
	req.Body.Close()
	if l.refs.Load() != 2 {
		t.Fatalf("two Closes of one body left %d references, want 2", l.refs.Load())
	}
	if _, err := req.Body.Read(head); !errors.Is(err, http.ErrBodyReadAfterClose) {
		t.Fatalf("read after close: %v", err)
	}
	if got, err := io.ReadAll(replay); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("replayed body differs (err %v)", err)
	}
	replay.Close()
	recycled := panels.recycled.Value()
	l.Release()
	if panels.recycled.Value() == recycled {
		t.Fatal("the last reference did not recycle the lease")
	}

	for _, empty := range []*Lease{nil, LeaseBytes(0)} {
		req, _ := http.NewRequest(http.MethodPost, "http://unused.invalid/", nil)
		empty.SetBody(req)
		if req.Body != nil || req.GetBody != nil || req.ContentLength != 0 {
			t.Fatalf("an empty lease gave the request a body")
		}
	}
}

// TestShedBodyOutlivesMultiply: a full server answers 429 without reading
// the body, so the transport can still be sending the leased copy when
// Multiply returns. The caller scribbles over b at once and another lessee
// draws from the same size class; the copy must stay out of the pool until
// the transport closes it (no race report), it must be released then (no
// leak on the shed path), and the parked request and the next one are served
// intact.
func TestShedBodyOutlivesMultiply(t *testing.T) {
	const k = 8
	srv, client, _ := newTestServer(t, Config{
		Threads: 1, MaxInFlight: 1, QueueDepth: -1, BatchWindow: time.Hour, Clock: clock.NewFake(),
	})
	// 2 MiB panels: far more than loopback socket buffers hold unread.
	reg, local := registerSmall(t, client, 16, 32768, 400, 3)
	release := holdDispatch(t, srv, reg.ID)
	holderB := matrix.NewDenseRand[float64](reg.Cols, k, 1)
	holder := multiplyAsync(client, reg, holderB, k, 0)
	waitFor(t, "holder parked behind the held dispatch", func() bool { return srv.pendingBatch(reg.ID) == 1 })

	for round := 0; round < 3; round++ {
		recycled := panels.recycled.Value()
		b := matrix.NewDenseRand[float64](reg.Cols, k, int64(10+round))
		_, err := client.Multiply(reg.ID, reg.Rows, b, k, 0)
		var se *StatusError
		if !errors.As(err, &se) || !se.Overloaded() {
			t.Fatalf("round %d: want a 429 shed, got %v", round, err)
		}
		for i := range b.Data {
			b.Data[i] = math.NaN()
		}
		other := LeaseBytes(reg.Cols * k * 8)
		for i := range other.Bytes() {
			other.Bytes()[i] = 0xa5
		}
		waitFor(t, "the transport to close the shed request's body", func() bool {
			return panels.recycled.Value() >= recycled+int64(reg.Cols*k*8)
		})
		other.Release()
	}

	release()
	got := <-holder
	if got.err != nil || !bitsEqual(got.res.C, multiplyRef(t, local, holderB, k)) {
		t.Fatalf("the parked request was disturbed (err %v)", got.err)
	}
	next := matrix.NewDenseRand[float64](reg.Cols, k, 2)
	if res, err := client.Multiply(reg.ID, reg.Rows, next, k, 0); err != nil || !bitsEqual(res.C, multiplyRef(t, local, next, k)) {
		t.Fatalf("the request after the sheds is not bitwise csr-serial (err %v)", err)
	}
}

// TestSampledPanelsStayOutOfThePool: with the tuner sampling at its maximum
// duty, every B/C pair it queued — lone panels and strided views of a
// coalesced dispatch's C — is still what was served when the shadow trial
// gets to it, however many later requests have leased the same classes.
func TestSampledPanelsStayOutOfThePool(t *testing.T) {
	const k, width, rounds = 6, 3, 8
	var nobody atomic.Value
	cfg := scriptedTuneConfig(&nobody) // every arm "measures" the same: no promotion
	cfg.Duty = 1                       // the tuner clamps to 0.5: every second request
	srv, client, _ := newTestServer(t, Config{Threads: 2, BatchWindow: time.Hour, Clock: clock.NewFake(), Tune: cfg})
	reg, local := registerSmall(t, client, 300, 200, 2500, 5)
	for round := 0; round < rounds; round++ {
		n := 1 + round%2*(width-1) // lone and coalesced dispatches alternate
		bs := make([]*matrix.Dense[float64], n)
		results := make([]*MultiplyResult, n)
		errs := make([]error, n)
		var wg sync.WaitGroup
		release := holdDispatch(t, srv, reg.ID)
		for i := range bs {
			bs[i] = matrix.NewDenseRand[float64](reg.Cols, k, int64(100*round+i))
			wg.Add(1)
			go func() {
				defer wg.Done()
				results[i], errs[i] = client.Multiply(reg.ID, reg.Rows, bs[i], k, 0)
			}()
		}
		waitFor(t, "the round's requests behind the held dispatch", func() bool { return srv.pendingBatch(reg.ID) == n })
		release()
		wg.Wait()
		for i, res := range results {
			if errs[i] != nil || !bitsEqual(res.C, multiplyRef(t, local, bs[i], k)) {
				t.Fatalf("round %d, request %d is not bitwise csr-serial (err %v)", round, i, errs[i])
			}
		}
	}
	srv.Tuner().Flush()
	st := srv.Tuner().Stats()
	if st.Rejects != 0 || st.Dropped != 0 || st.Stale != 0 || st.Trials < rounds {
		t.Fatalf("shadow trials over sampled panels: %d trials, %d rejects, %d dropped, %d stale; want every sample verified",
			st.Trials, st.Rejects, st.Dropped, st.Stale)
	}
}

// TestMultiplyRoundTripBytes pins what one cached multiply allocates end to
// end — client encode to client decode over loopback, dw4096@0.05 at k = 32,
// the benchmark's serve-small shape — now that three of its four 105 KB
// panels are leased: the caller-owned C, net/http's 32 KB copy buffer and
// about 17 KB of small objects remain.
func TestMultiplyRoundTripBytes(t *testing.T) {
	if raceBuild {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const k, warm, n = 32, 50, 200
	_, client, _ := newTestServer(t, Config{Threads: 2})
	reg, err := client.Register(RegisterRequest{Name: "dw4096", Scale: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	b := matrix.NewDenseRand[float64](reg.Cols, k, 1)
	bytesPer, allocsPer := roundTripCost(t, warm, n, func() {
		if _, err := client.Multiply(reg.ID, reg.Rows, b, k, 0); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.0f B and %.1f objects per round trip", bytesPer, allocsPer)
	if bytesPer > 165000 || allocsPer > 132 {
		t.Fatalf("one multiply allocates %.0f B in %.1f objects, want at most 165000 B in 132", bytesPer, allocsPer)
	}
}

// roundTripCost runs f warm times, then n more and returns the process's
// allocated bytes and objects per run over those.
func roundTripCost(t *testing.T, warm, n int, f func()) (bytes, allocs float64) {
	t.Helper()
	for i := 0; i < warm; i++ {
		f()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(n), float64(after.Mallocs-before.Mallocs) / float64(n)
}
