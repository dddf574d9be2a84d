package parallel

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestPoolRegionOutlivesStalledParticipant: a participant held up on one
// piece of a pooled region does not hold the rest of it. The body call that
// holds item 0 waits until 768 of the 1 024 items have run, more than the
// other participant's static half, so the region only finishes if that
// participant claims pieces past its own chunk. It runs under GOMAXPROCS(1)
// too, where the stalled participant has the only processor until it parks.
func TestPoolRegionOutlivesStalledParticipant(t *testing.T) {
	const n, enough = 1024, 768
	p := NewPool(2)
	defer p.Close()
	runs := []struct {
		name string
		run  func(body func(lo, hi, w int))
	}{
		{"Run", func(body func(lo, hi, w int)) { p.Run(n, 2, body) }},
		{"RunBounds", func(body func(lo, hi, w int)) { p.RunBounds([]int{0, n / 2, n}, body) }},
	}
	for _, procs := range []int{runtime.GOMAXPROCS(0), 1} {
		for _, r := range runs {
			t.Run(fmt.Sprintf("%s/GOMAXPROCS=%d", r.name, procs), func(t *testing.T) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				var ran atomic.Int64
				var once sync.Once
				released := make(chan struct{})
				r.run(func(lo, hi, _ int) {
					if lo == 0 {
						select {
						case <-released:
						case <-time.After(10 * time.Second):
							t.Errorf("item 0 waited 10 s: %d of %d items ran beside it, want %d",
								ran.Load(), n, enough)
						}
					}
					if ran.Add(int64(hi-lo)) >= enough {
						once.Do(func() { close(released) })
					}
				})
				if got := ran.Load(); got != n {
					t.Fatalf("region ran %d items, want %d", got, n)
				}
			})
		}
	}
}

// TestPoolBodyPanicSurfacesOnCaller: a body that panics on any participant
// — the caller or a woken worker — panics the caller with the same value,
// once the region has joined, and the pool stays usable: the next region on
// it covers every item exactly once. The other participants hold their
// first piece until the victim has panicked, so the victim is sure to claim
// one.
func TestPoolBodyPanicSurfacesOnCaller(t *testing.T) {
	const n = 1024
	type boom struct{ victim int }
	p := NewPool(2)
	defer p.Close()
	runs := []struct {
		name string
		run  func(body func(lo, hi, w int))
	}{
		{"Run", func(body func(lo, hi, w int)) { p.Run(n, 4, body) }},
		{"RunBounds", func(body func(lo, hi, w int)) { p.RunBounds([]int{0, n / 4, n / 2, n}, body) }},
	}
	for _, procs := range []int{runtime.GOMAXPROCS(0), 1} {
		for _, r := range runs {
			for _, victim := range []int{0, 1} { // the caller, a woken worker
				t.Run(fmt.Sprintf("%s/GOMAXPROCS=%d/participant=%d", r.name, procs, victim), func(t *testing.T) {
					defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
					panicked := make(chan struct{})
					got := func() (v any) {
						defer func() { v = recover() }()
						r.run(func(lo, hi, w int) {
							if w == victim {
								close(panicked)
								panic(boom{victim})
							}
							select {
							case <-panicked:
							case <-time.After(10 * time.Second):
								t.Errorf("participant %d never ran a piece", victim)
							}
						})
						return nil
					}()
					if got != (boom{victim}) {
						t.Fatalf("caller recovered %v, want the body's panic %v", got, boom{victim})
					}
					hits := make([]atomic.Int32, n)
					r.run(func(lo, hi, _ int) {
						for i := lo; i < hi; i++ {
							hits[i].Add(1)
						}
					})
					for i := range hits {
						if h := hits[i].Load(); h != 1 {
							t.Fatalf("after the panic: item %d ran %d times, want 1", i, h)
						}
					}
				})
			}
		}
	}
}

// TestPoolRunZeroAlloc: with the body built once, a pooled region — the
// caller joining, the workers woken, the pieces claimed — allocates
// nothing, oversubscribed or not.
func TestPoolRunZeroAlloc(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	var items atomic.Int64
	body := func(lo, hi, _ int) { items.Add(int64(hi - lo)) }
	bounds, short := []int{0, 3, 640, 1000}, []int{0, 1, 2}
	for name, run := range map[string]func(){
		"Run":             func() { p.Run(1000, 2, body) },
		"Run/threads=4":   func() { p.Run(1000, 4, body) },
		"RunBounds":       func() { p.RunBounds(bounds, body) },
		"RunBounds/short": func() { p.RunBounds(short, body) },
	} {
		if a := testing.AllocsPerRun(100, run); a != 0 {
			t.Errorf("%s: %.0f allocs/op, want 0", name, a)
		}
	}
}

// BenchmarkPoolRegion prices one pooled region of two chunks and about
// 1 ms of work on a two-worker pool, without HTTP: "alone"; "loaded", beside
// one goroutine that spins without pause and so holds a core for the whole
// region; and "bursts", beside one goroutine that spins for about 200 µs and
// sleeps for 200 µs — the serving tier's situation, where another request's
// decode or encode takes a core for part of a region. Under "loaded" one
// core does all the work whatever the schedule, so that row prices only
// the dispatch.
func BenchmarkPoolRegion(b *testing.B) {
	const n, burst = 256, 50 * regionSpin // ≈ 1 ms and ≈ 200 µs of spin
	p := NewPool(2)
	defer p.Close()
	var sink atomic.Uint64
	body := func(lo, hi, _ int) { sink.Add(spin(hi*regionSpin - lo*regionSpin)) }
	for _, load := range []string{"alone", "loaded", "bursts"} {
		b.Run(load, func(b *testing.B) {
			var stop atomic.Bool
			var wg sync.WaitGroup
			if load != "alone" {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for !stop.Load() {
						sink.Add(spin(burst))
						if load == "bursts" {
							time.Sleep(200 * time.Microsecond)
						}
					}
				}()
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.Run(n, 2, body)
			}
			b.StopTimer()
			stop.Store(true)
			wg.Wait()
		})
	}
}

// regionSpin is BenchmarkPoolRegion's dependent multiply-adds per item:
// 256 items of it are about 1 ms on one core of a 2 vCPU Sapphire Rapids
// host.
const regionSpin = 1200

// spin runs m dependent multiply-adds and returns the result's bits.
func spin(m int) uint64 {
	x := 1.0
	for i := 0; i < m; i++ {
		x = x*1.0000001 + 1e-9
	}
	return math.Float64bits(x)
}
