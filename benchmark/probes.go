package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"runtime"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/matrix"
	"repro/internal/parallel"
	"repro/internal/serve"
)

// Layer probes: each times calls into one module's public functions, or
// reads its public counters, from outside, on the stack the untraced
// segments just ran on and with nothing else running. Every probe is boxed
// by a time budget and an iteration cap, so a slow layer costs the run a
// bounded amount.

// timeBox calls f until the cap or the budget is reached and returns each
// call's duration in µs. At least one call is made.
func timeBox(budget time.Duration, cap int, f func() error) ([]float64, error) {
	us := make([]float64, 0, cap)
	for start := time.Now(); len(us) < cap && (len(us) == 0 || time.Since(start) < budget); {
		t0 := time.Now()
		if err := f(); err != nil {
			return us, err
		}
		us = append(us, 1e6*time.Since(t0).Seconds())
	}
	return us, nil
}

func probeLayers(wl *serveWorkload, o options, rec *recorder, l *load, loadedP50 float64, parent int, w io.Writer) error {
	st := l.st
	budget := o.segment() / 4
	sh := st.shards[0]
	c0 := st.clients[0]
	owner := st.nodes[sh.owner]
	spanned := func(name string, f func() error) error {
		sp := rec.spans.begin(name, parent, 0)
		defer rec.spans.end(sp, "")
		return f()
	}

	// client: one caller alone, through the front door.
	var solo []float64
	err := spanned("client.solo", func() (err error) {
		solo, err = timeBox(2*budget, 200, func() error {
			rec.count(1)
			_, err := c0.api.Multiply(sh.id, sh.rows, c0.b[0], wl.k, 0)
			return err
		})
		return err
	})
	if err != nil {
		return fmt.Errorf("solo probe: %w", err)
	}
	soloP50 := median(solo)
	rec.set("client.solo_p50_us", soloP50, len(solo))

	// http: the floor under any request — a small GET on the same connection.
	var floor []float64
	err = spanned("http.floor", func() (err error) {
		floor, err = timeBox(budget, 200, func() error {
			resp, err := c0.api.HTTP.Get(owner.base + "/v1/matrices/" + sh.id)
			if err != nil {
				return err
			}
			defer resp.Body.Close()
			_, err = io.Copy(io.Discard, resp.Body)
			return err
		})
		return err
	})
	if err != nil {
		return fmt.Errorf("http floor probe: %w", err)
	}
	rec.set("http.floor_us", median(floor), len(floor))

	// serve codec: WritePanel / ReadPanel on the workload's panel shape (the
	// matrices are square, so B and C panels are the same size).
	var enc, dec []float64
	var codecMem memDelta
	panelBytes := sh.cols * wl.k * 8
	err = spanned("codec.panel", func() error {
		var buf bytes.Buffer
		buf.Grow(panelBytes)
		mem := memMark()
		var err error
		enc, err = timeBox(budget/2, 200, func() error {
			buf.Reset()
			return serve.WritePanel(&buf, c0.b[0], wl.k)
		})
		if err != nil {
			return err
		}
		dec, err = timeBox(budget/2, 200, func() error {
			_, err := serve.ReadPanel(bytes.NewReader(buf.Bytes()), sh.cols, wl.k)
			return err
		})
		codecMem = memMark().since(mem)
		return err
	})
	if err != nil {
		return fmt.Errorf("codec probe: %w", err)
	}
	encUs, decUs := median(enc), median(dec)
	rec.set("codec.encode_us", encUs, len(enc))
	rec.set("codec.decode_us", decUs, len(dec))
	rec.set("codec.gbs", 2*float64(panelBytes)/((encUs+decUs)*1e-6)/1e9, len(enc)+len(dec))
	rec.set("codec.allocs_per_call", float64(codecMem.Objects)/float64(len(enc)+len(dec)), len(enc)+len(dec))

	// serve registry: a first preparation and a warm lookup.
	if err := coldPrepares(rec, st, budget, parent); err != nil {
		return err
	}
	reg := owner.srv.Registry()
	var sv serve.Serving
	hit, err := timeBox(budget, 2000, func() (err error) {
		sv, _, err = reg.Prepared(context.Background(), sh.id)
		return err
	})
	if err != nil {
		return fmt.Errorf("registry probe: %w", err)
	}
	hitUs := median(hit)
	rec.set("registry.hit_us", hitUs, len(hit))

	// kernel in serve: the served plan's kernel at the workload's k, alone.
	var calc []float64
	err = spanned("kernel.calculate", func() error {
		pool := parallel.NewPool(runtime.NumCPU())
		defer pool.Close()
		p := core.Params{Reps: 1, Threads: runtime.NumCPU(), BlockSize: sv.Plan.Block, K: wl.k, Schedule: sv.Plan.Schedule}
		if sv.Plan.Pooled {
			p.Pool = pool
		}
		out := matrix.NewDense[float64](sh.rows, wl.k)
		var err error
		calc, err = timeBox(budget, 200, func() error { return sv.Kernel.Calculate(c0.b[0], out, p) })
		return err
	})
	if err != nil {
		return fmt.Errorf("kernel probe: %w", err)
	}
	calcUs := median(calc)
	rec.set("kernel.calc_us", calcUs, len(calc))

	// serve (self): what is left of a lone request after every layer probed
	// above — handler, admission and batcher self time (the batch window
	// included, when there is one).
	rec.set("serve.residual_us", soloP50-(2*encUs+2*decUs+hitUs+calcUs+median(floor)), len(solo))
	share := calcUs / soloP50
	fmt.Fprintf(w, "  kernel share of a lone request: %.1f%% (kernel.calc_us %.1f / client.solo_p50_us %.1f); loaded p50 %.1f us\n",
		100*share, calcUs, soloP50, loadedP50)
	switch wl.name {
	case wlServeSmall:
		rec.check("kernel<15%-of-solo", share < 0.15, "kernel is %.1f%% of a lone request", 100*share)
	case wlServeHeavy:
		rec.check("kernel>=50%-of-solo", share >= 0.50, "kernel is %.1f%% of a lone request", 100*share)
	}

	if wl.mutateEvery > 0 {
		if err := probeDelta(rec, sv, c0.b[0], wl.k, o.seed, budget, parent); err != nil {
			return fmt.Errorf("delta probe: %w", err)
		}
		if err := probeWAL(wl, o, rec, l, parent); err != nil {
			return fmt.Errorf("wal probe: %w", err)
		}
	}
	if wl.replicas > 0 {
		if err := probeRouter(o, rec, l, loadedP50, parent); err != nil {
			return fmt.Errorf("router probe: %w", err)
		}
	}
	if wl.mutateEvery == 0 {
		// Last, because it leaves an overlay on a matrix the probes above
		// measured clean.
		idleAcks(rec, l)
	}
	return nil
}

// coldPrepares prices what a miss in the prepared-format cache costs: the
// first Registry.Prepared of each of the workload's matrices on a registry
// of its own (advisor plan, format conversion, partition warm-up), summed
// over the shards. The live cache is left alone.
func coldPrepares(rec *recorder, st *stack, budget time.Duration, parent int) error {
	sp := rec.spans.begin("registry.prepare", parent, 0)
	defer rec.spans.end(sp, "")
	var ms []float64
	for start := time.Now(); len(ms) < 50 && (len(ms) == 0 || time.Since(start) < budget); {
		var sum time.Duration
		for _, sh := range st.shards {
			m, ok := st.nodes[sh.owner].srv.Registry().Get(sh.id)
			if !ok {
				return fmt.Errorf("cold prepare: %s is not registered on its owner", sh.ref)
			}
			fresh := serve.NewRegistry(cacheBytes, runtime.NumCPU())
			if _, _, err := fresh.Register(m.COO); err != nil {
				return fmt.Errorf("cold prepare: %w", err)
			}
			t0 := time.Now()
			_, _, err := fresh.Prepared(context.Background(), sh.id)
			sum += time.Since(t0)
			if err != nil {
				return fmt.Errorf("cold prepare: %w", err)
			}
		}
		ms = append(ms, 1e3*sum.Seconds())
	}
	rec.set("registry.prepare_ms", median(ms), len(ms))
	return nil
}

// probeDelta times Overlay.Extend / Apply / Merge on the live serving
// state's overlay — what one more ack, one multiply and one compaction cost
// at the overlay size the workload actually reaches. Right after a
// compaction the live overlay is nil, which Extend treats as empty.
func probeDelta(rec *recorder, sv serve.Serving, b *matrix.Dense[float64], k int, seed int64, budget time.Duration, parent int) error {
	sp := rec.spans.begin("delta.overlay", parent, 0)
	defer rec.spans.end(sp, "")
	rng := rand.New(rand.NewSource(seed + 1))
	ov := sv.Overlay
	extend, err := timeBox(budget, 200, func() (err error) {
		ov, err = sv.Overlay.Extend(sv.Base, mutationBatch(rng, sv.Base.Rows, sv.Base.Cols, mutateOps))
		return err
	})
	if err != nil {
		return err
	}
	rec.set("delta.extend_us", median(extend), len(extend))
	c := matrix.NewDense[float64](sv.Base.Rows, k)
	apply, _ := timeBox(budget, 200, func() error { ov.Apply(c, b, k); return nil })
	rec.set("delta.apply_us", median(apply), len(apply))
	merge, _ := timeBox(budget, 20, func() error { ov.Merge(); return nil })
	rec.set("delta.merge_ms", median(merge)/1e3, len(merge))
	return nil
}

// probeWAL prices the journal: the ack of a batch on the durable server
// minus the ack of the same batch on a second, in-memory server holding the
// same matrix, both idle; and the journal bytes one batch appends.
func probeWAL(wl *serveWorkload, o options, rec *recorder, l *load, parent int) error {
	sp := rec.spans.begin("wal.acks", parent, 0)
	defer rec.spans.end(sp, "")
	const batches = 50
	var walBytes []float64
	// The journal is read around every batch, outside the timed ack; on the
	// in-memory server it never grows and contributes nothing.
	acks := func(api *serve.Client, mut *mutator, sh shard) ([]float64, error) {
		var us []float64
		for i := 0; i < batches; i++ {
			before, err := api.Stats()
			if err != nil {
				return nil, err
			}
			rec.count(1)
			ack, err := mut.send(api, sh)
			if err != nil {
				return nil, err
			}
			us = append(us, 1e6*ack.Seconds())
			after, err := api.Stats()
			if err != nil {
				return nil, err
			}
			// A snapshot truncates the journal; skip the batches it spans.
			if b, a := before.Durability, after.Durability; a.Snapshots == b.Snapshots && a.WALBytes > b.WALBytes {
				walBytes = append(walBytes, float64(a.WALBytes-b.WALBytes))
			}
		}
		return us, nil
	}
	durableUs, err := acks(l.st.clients[0].api, l.mut, l.st.shards[0])
	if err != nil {
		return err
	}
	mem := *wl
	mem.durable, mem.mutateEvery = false, 0
	memStack, err := startStack(&mem, o, false)
	if err != nil {
		return err
	}
	defer memStack.close()
	memUs, err := acks(memStack.clients[0].api, newMutator(o.seed+2), memStack.shards[0])
	if err != nil {
		return err
	}
	rec.set("wal.ack_tax_us", median(durableUs)-median(memUs), batches)
	if len(walBytes) > 0 {
		rec.set("wal.bytes_per_batch", median(walBytes), len(walBytes))
	}
	return nil
}

// probeRouter repeats the measured requests straight at the owning replicas
// — same clients, same connections' transports, same closed loop — so
// routed minus direct is the router's cost; and reads the router's counters.
func probeRouter(o options, rec *recorder, l *load, routedP50 float64, parent int) error {
	st := l.st
	routed := l.run(o.segment(), "routed", parent)
	l.direct = true
	direct := l.run(o.segment(), "direct", parent)
	l.direct = false
	n := routed.multiplies + direct.multiplies
	perReq := func(s segment, v uint64) float64 { return float64(v) / float64(max(s.completed(), 1)) }
	overhead := routed.p50 - direct.p50
	rec.set("router.overhead_us", overhead, n)
	rec.set("router.bytes_per_req", perReq(routed, routed.mem.Bytes)-perReq(direct, direct.mem.Bytes), n)
	rec.set("router.allocs_per_req", perReq(routed, routed.mem.Objects)-perReq(direct, direct.mem.Objects), n)
	rec.check("router.overhead_us>0", overhead > 0, "routed p50 %.1f us, direct p50 %.1f us (segments p50 %.1f us)",
		routed.p50, direct.p50, routedP50)

	resp, err := st.clients[0].api.HTTP.Get(st.front + "/v1/cluster")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET /v1/cluster: %s", resp.Status)
	}
	var cs cluster.Stats
	if err := json.NewDecoder(resp.Body).Decode(&cs); err != nil {
		return fmt.Errorf("GET /v1/cluster: %w", err)
	}
	rec.set("router.failovers", float64(cs.Failovers), int(cs.Requests))
	rec.set("router.spillovers", float64(cs.Spillovers), int(cs.Requests))
	rec.set("router.replications", float64(cs.Replications), int(cs.Requests))

	ring := cluster.NewRing(cluster.DefaultVNodes, cs.Ring...)
	const lookups = 100000
	t0 := time.Now()
	for i := 0; i < lookups; i++ {
		ring.Owner(st.shards[i%len(st.shards)].id)
	}
	rec.set("ring.owner_ns", float64(time.Since(t0).Nanoseconds())/lookups, lookups)
	return nil
}
