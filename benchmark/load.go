package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/delta"
	"repro/internal/matrix"
	"repro/internal/serve"
)

// retainEvery is how often a client keeps a response for the correctness
// gate (it also keeps the first response of every segment).
const retainEvery = 500

// loadClient is one closed-loop caller: one goroutine, one connection.
type loadClient struct {
	idx int
	api *serve.Client
	b   []*matrix.Dense[float64] // one B panel per shard
	// direct[i] talks straight to node i on this client's own transport —
	// the router-bypassing path of cluster-routed's direct probe.
	direct []*serve.Client
	seq    int // requests sent, multiplies and mutations alike
	// lat is this client's multiply latencies (µs) in the current segment.
	// It is allocated once and reused: the servers' live heap is a few MB,
	// so a benchmark whose own bookkeeping grew by a megabyte per segment
	// would slow the collector's pace segment by segment and measure that.
	lat  []float64
	done int // multiplies completed in the current segment
}

// latCap bounds the multiplies one client records per segment; beyond it
// requests are still sent and counted, only their latencies are dropped.
const latCap = 1 << 16

// retained is a response kept until its segment ends, for verification.
type retained struct {
	client, shard int
	epoch         int64
	hash          string
	c             *matrix.Dense[float64]
}

// mutator is the seeded mutation script. Only client 0 mutates, one batch
// at a time, so batch i produces epoch i+1 and every epoch's content is
// known to the verifier.
type mutator struct {
	rng     *rand.Rand
	batches [][]delta.Op
	// overlayPeak is the largest pending overlay any ack reported.
	overlayPeak int
}

func newMutator(seed int64) *mutator {
	return &mutator{rng: rand.New(rand.NewSource(seed))}
}

// send applies the script's next batch through the client and checks the
// ack names the epoch the script expects.
func (m *mutator) send(c *serve.Client, sh shard) (time.Duration, error) {
	ops := mutationBatch(m.rng, sh.rows, sh.cols, mutateOps)
	wire := make([]serve.MutateOp, len(ops))
	for i, op := range ops {
		wire[i] = serve.MutateOp{Row: op.Row, Col: op.Col, Val: op.Val, Del: op.Del}
	}
	t0 := time.Now()
	resp, err := c.Mutate(sh.id, wire)
	ack := time.Since(t0)
	if err != nil {
		return ack, err
	}
	m.batches = append(m.batches, ops)
	m.overlayPeak = max(m.overlayPeak, resp.OverlayNNZ)
	if want := int64(len(m.batches)); resp.Epoch != want {
		return ack, fmt.Errorf("mutation batch %d acked epoch %d", want, resp.Epoch)
	}
	return ack, nil
}

// segment is what one timed segment measured. Latency percentiles are over
// every completed multiply of both clients in the segment.
type segment struct {
	elapsed       time.Duration
	multiplies    int
	p50, p90, p99 float64   // µs
	ackUs         []float64 // every acked mutation batch (one request in ten of one client)
	mem           memDelta  // whole process, client and servers
	liveHeapMB    float64
}

func (s segment) completed() int { return s.multiplies + len(s.ackUs) }

// load drives a stack and keeps what the correctness gate needs.
type load struct {
	st       *stack
	rec      *recorder
	shrink   float64 // of the matrices, for the verifier's local copies
	mut      *mutator
	direct   bool // send multiplies straight at the owning replica
	mu       sync.Mutex
	retained []retained
	refs     map[int]*reference // by shard
	// phases collects the server's own X-Spmm-Timing phases (µs) when
	// request tracing is on.
	phases map[string][]float64
}

func newLoad(st *stack, rec *recorder, o options) *load {
	return &load{st: st, rec: rec, shrink: o.shrink, mut: newMutator(o.seed), refs: map[int]*reference{}, phases: map[string][]float64{}}
}

// run measures one closed-loop segment of d: both clients send until the
// deadline, then the segment's allocation and live heap are read and the
// responses it retained are verified and dropped.
func (l *load) run(d time.Duration, name string, parent int) segment {
	sp := l.rec.spans.begin(name, parent, 0)
	acks := make([][]float64, clients)
	memStart := memMark()
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for _, c := range l.st.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			acks[c.idx] = l.drive(c, deadline, sp)
		}()
	}
	wg.Wait()
	seg := segment{elapsed: time.Since(start), mem: memMark().since(memStart)}
	l.rec.spans.end(sp, "")
	var all []float64
	for _, c := range l.st.clients {
		all = append(all, c.lat...)
		seg.multiplies += c.done
		seg.ackUs = append(seg.ackUs, acks[c.idx]...)
	}
	seg.p50, seg.p90, seg.p99 = median(all), percentile(all, 0.90), percentile(all, 0.99)
	l.verify(parent)
	seg.liveHeapMB = liveHeapMB()
	return seg
}

// drive is one client's loop; it returns the acks of the mutations it sent
// and leaves its multiply latencies in c.lat. Every operation sent counts as
// attempted; any error, refusal or non-2xx counts as failed.
func (l *load) drive(c *loadClient, deadline time.Time, parent int) (ackUs []float64) {
	wl := l.st.wl
	c.lat, c.done = c.lat[:0], 0
	api := c.api
	first := true
	attempted := 0
	for time.Now().Before(deadline) {
		seq := c.seq
		c.seq++
		attempted++
		if wl.mutateEvery > 0 && c.idx == 0 && seq%wl.mutateEvery == wl.mutateEvery-1 {
			sp := l.rec.spans.begin("client.mutate", parent, 1+c.idx)
			ack, err := l.mut.send(api, l.st.shards[0])
			l.rec.spans.end(sp, "")
			if err != nil {
				l.rec.fail("%s: mutate: %v", wl.name, err)
				continue
			}
			ackUs = append(ackUs, 1e6*ack.Seconds())
			continue
		}
		// Clients start half a turn apart so they do not walk the shards
		// in lockstep.
		si := (seq + c.idx*len(l.st.shards)/clients) % len(l.st.shards)
		sh := l.st.shards[si]
		if l.direct {
			api = c.direct[sh.owner]
		}
		sp := l.rec.spans.begin("client.multiply", parent, 1+c.idx)
		t0 := time.Now()
		res, err := api.Multiply(sh.id, sh.rows, c.b[si], wl.k, 0)
		us := 1e6 * time.Since(t0).Seconds()
		if err != nil {
			l.rec.spans.end(sp, "")
			l.rec.fail("%s: multiply %s: %v", wl.name, sh.ref, err)
			continue
		}
		l.rec.spans.end(sp, res.RequestID)
		c.done++
		if len(c.lat) < latCap {
			c.lat = append(c.lat, us)
		}
		if first || c.done%retainEvery == 0 {
			first = false
			l.mu.Lock()
			l.retained = append(l.retained, retained{client: c.idx, shard: si, epoch: res.Epoch, hash: res.Hash, c: res.C})
			l.mu.Unlock()
		}
		if res.Timing.Valid() {
			l.mu.Lock()
			for _, p := range res.Timing.Phases {
				l.phases[p.Phase] = append(l.phases[p.Phase], 1e3*p.Ms)
			}
			l.mu.Unlock()
		}
	}
	l.rec.count(attempted)
	return ackUs
}

// reference is the verifier's state for one shard: the local copy of the
// matrix, the script's batches applied so far, and the serial kernel
// prepared for the epoch last asked for.
type reference struct {
	base      *matrix.COO[float64]
	ov        *delta.Overlay
	applied   int
	kern      core.Kernel
	kernEpoch int64
	c         *matrix.Dense[float64]
}

// verify is the correctness gate: every retained response is compared
// bitwise against a local csr-serial multiply over the matrix merged to the
// response's epoch with delta.NewOverlay / Extend / Merge — the rule
// cmd/spmmload applies. A mismatch counts as a failed operation. It runs
// after every segment, outside the timed window, and drops what it checked:
// responses held until the end of the run would grow the live heap, which
// moves the collector's pace and so the very latencies being measured.
func (l *load) verify(parent int) {
	sp := l.rec.spans.begin("verify", parent, 0)
	defer l.rec.spans.end(sp, "")
	k := l.st.wl.k
	p := core.Params{Reps: 1, Threads: 1, BlockSize: 4, K: k}
	sort.SliceStable(l.retained, func(i, j int) bool { return l.retained[i].epoch < l.retained[j].epoch })
	for _, r := range l.retained {
		sh := l.st.shards[r.shard]
		ref := l.refs[r.shard]
		if ref == nil {
			base, err := sh.ref.generate(l.shrink)
			if err != nil {
				l.rec.fail("verify: %v", err)
				continue
			}
			if id := serve.ContentID(base); id != sh.id {
				l.rec.fail("verify: %s registered as %s, local copy hashes to %s", sh.ref, sh.id, id)
				continue
			}
			ref = &reference{base: base, ov: delta.NewOverlay(base), kernEpoch: -1, c: matrix.NewDense[float64](sh.rows, k)}
			l.refs[r.shard] = ref
		}
		switch {
		case r.epoch < int64(ref.applied) || r.epoch > int64(len(l.mut.batches)) || (r.shard != 0 && r.epoch != 0):
			l.rec.fail("verify: %s answered at epoch %d; script is at %d, verifier at %d", sh.ref, r.epoch, len(l.mut.batches), ref.applied)
			continue
		case r.epoch == 0 && r.hash != sh.id:
			l.rec.fail("verify: %s at epoch 0 served hash %s", sh.ref, r.hash)
			continue
		}
		var err error
		for ; ref.applied < int(r.epoch); ref.applied++ {
			if ref.ov, err = ref.ov.Extend(ref.base, l.mut.batches[ref.applied]); err != nil {
				break
			}
		}
		if err == nil && ref.kernEpoch != r.epoch {
			state := ref.base
			if ref.ov.NNZ() > 0 {
				state = ref.ov.Merge()
			}
			if ref.kern, err = core.New("csr-serial", core.Options{}); err == nil {
				err = ref.kern.Prepare(state, p)
			}
			ref.kernEpoch = r.epoch
		}
		if err == nil {
			err = ref.kern.Calculate(l.st.clients[r.client].b[r.shard], ref.c, p)
		}
		if err != nil {
			l.rec.fail("verify: reference for %s at epoch %d: %v", sh.ref, r.epoch, err)
			continue
		}
		if !bitwiseEqual(r.c, ref.c, k) {
			l.rec.fail("verify: %s response at epoch %d differs from the serial reference", sh.ref, r.epoch)
		}
	}
	l.retained = nil
}

// bitwiseEqual compares the first k columns of two panels bit for bit.
func bitwiseEqual(a, b *matrix.Dense[float64], k int) bool {
	if a.Rows != b.Rows {
		return false
	}
	for i := 0; i < a.Rows; i++ {
		ra, rb := a.Row(i), b.Row(i)
		for j := 0; j < k; j++ {
			if math.Float64bits(ra[j]) != math.Float64bits(rb[j]) {
				return false
			}
		}
	}
	return true
}
